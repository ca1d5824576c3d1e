package hll

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// hyperANFReference is the sequential HyperANF that predates the skip
// rule, the flat register arena and the parallel sweep, kept verbatim
// as the bitwise oracle for HyperANF: every iteration unions every
// out-neighbor's counter, and N[t] sums freshly computed estimates.
func hyperANFReference(g *san.SAN, opt Options) NeighborhoodFunction {
	p := opt.Precision
	if p == 0 {
		p = 8
	}
	n := g.NumSocial()
	cur := make([]*Counter, n)
	next := make([]*Counter, n)
	for i := 0; i < n; i++ {
		cur[i] = NewCounter(p)
		cur[i].Add(Hash(uint64(i), opt.Seed))
		next[i] = NewCounter(p)
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 32
		for s := n; s > 1; s >>= 1 {
			maxIter += 3
		}
	}
	nf := NeighborhoodFunction{N: []float64{sumEstimates(cur)}}
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			next[u].Assign(cur[u])
			for _, v := range g.Out(san.NodeID(u)) {
				if next[u].Union(cur[v]) {
					changed = true
				}
			}
		}
		cur, next = next, cur
		nf.N = append(nf.N, sumEstimates(cur))
		if !changed {
			break
		}
	}
	return nf
}

func sumEstimates(cs []*Counter) float64 {
	var s float64
	for _, c := range cs {
		s += c.Estimate()
	}
	return s
}

// Assign copies other's registers into c.
func (c *Counter) Assign(other *Counter) {
	copy(c.regs, other.regs)
}

// forEachProcs runs f under GOMAXPROCS 1, 2 and 4: the parallel sweep
// must give the same bits for every fan-out, including none.
func forEachProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// sameNeighborhoodFunction reports the first bitwise difference
// between two neighborhood functions, or nil.
func sameNeighborhoodFunction(got, want NeighborhoodFunction) error {
	if len(got.N) != len(want.N) {
		return fmt.Errorf("%d iterations, reference %d", len(got.N)-1, len(want.N)-1)
	}
	for t, x := range got.N {
		if math.Float64bits(x) != math.Float64bits(want.N[t]) {
			return fmt.Errorf("N[%d] = %v, reference %v", t, x, want.N[t])
		}
	}
	return nil
}

// quickFoldDays packs a quick-scale simulation (DailyBase 100, seed 42)
// into timelines and folds them forward, calling visit with every 14th
// day's full SAN and crawl view as the dataset fold reconstructs them.
func quickFoldDays(t testing.TB, visit func(day int, full, view *san.SAN)) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 100
	cfg.Seed = 42
	full, view, err := gplus.New(cfg).RunTimelines(nil)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{full, view})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for {
		day, gs, _, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if (day+1)%14 == 0 {
			visit(day+1, gs[0], gs[1])
		}
	}
}

// TestHyperANFMatchesReference pins HyperANF bit for bit — every N[t]
// and the iteration count — to the sequential reference, under
// several GOMAXPROCS values.
func TestHyperANFMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    *san.SAN
		opt  Options
	}
	sparse := san.New(600, 0, 0) // isolated nodes and degree-1 nodes
	sparse.AddSocialNodes(600)
	for u := 0; u < 600; u += 3 {
		sparse.AddSocialEdge(san.NodeID(u), san.NodeID((u*7+1)%600))
	}
	inputs := []input{
		{"empty", san.New(0, 0, 0), Options{}},
		{"chain10", chain(10), Options{Precision: 12, Seed: 3}},
		// Longer than the default iteration cap: stops at MaxIter.
		{"chain1000", chain(1000), Options{Precision: 4, Seed: 1}},
		{"sparse", sparse, Options{Precision: 6, Seed: 9}},
	}
	for i, n := range []int{300, 2000} {
		g := core.Generate(core.NewDefaultParams(n))
		inputs = append(inputs,
			input{fmt.Sprintf("generate%d", n), g, Options{Precision: uint8(5 + i), Seed: uint64(n)}},
			input{fmt.Sprintf("generate%d/maxiter3", n), g, Options{Seed: 1, MaxIter: 3}})
	}
	rng := rand.New(rand.NewPCG(8, 9))
	rnd := san.New(1500, 0, 0)
	rnd.AddSocialNodes(1500)
	for i := 0; i < 4000; i++ {
		rnd.AddSocialEdge(san.NodeID(rng.IntN(1500)), san.NodeID(rng.IntN(1500)))
	}
	inputs = append(inputs, input{"uniform", rnd, Options{Precision: 7, Seed: 11}})
	quickFoldDays(t, func(day int, full, _ *san.SAN) {
		inputs = append(inputs, input{fmt.Sprintf("quick/day%d", day), full, Options{Precision: 6, Seed: 42}})
	})

	want := make([]NeighborhoodFunction, len(inputs))
	for i, in := range inputs {
		want[i] = hyperANFReference(in.g, in.opt)
	}
	forEachProcs(t, func(t *testing.T) {
		for i, in := range inputs {
			if err := sameNeighborhoodFunction(HyperANF(in.g, in.opt), want[i]); err != nil {
				t.Errorf("%s: %v", in.name, err)
			}
		}
	})
}

// TestHyperANFPrecisionGuard pins HyperANF's own precision check: the
// flat register arena does not go through NewCounter, so it must still
// reject precisions outside [4, 16] rather than allocate 2^p registers
// per node; 0 keeps meaning 8.
func TestHyperANFPrecisionGuard(t *testing.T) {
	g := chain(5)
	for _, tc := range []struct {
		p         uint8
		wantPanic bool
	}{
		{0, false}, {3, true}, {4, false}, {16, false}, {17, true},
	} {
		t.Run(fmt.Sprintf("p=%d", tc.p), func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != tc.wantPanic {
					t.Errorf("HyperANF(Precision %d): panic %v, want panic %v", tc.p, r, tc.wantPanic)
				}
			}()
			HyperANF(g, Options{Precision: tc.p})
		})
	}
	if err := sameNeighborhoodFunction(HyperANF(g, Options{}), HyperANF(g, Options{Precision: 8})); err != nil {
		t.Errorf("precision 0 is not precision 8: %v", err)
	}
}
