package metrics

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

// The reference Algorithm 2 estimators below are the sample-and-probe
// loops that predate the draw-then-probe split, kept verbatim as the
// bitwise oracle for the production estimators: same estimate, same rng
// consumption.

func refAverageSocialClustering(g *san.SAN, k int, rng *rand.Rand) float64 {
	n := g.NumSocial()
	if n == 0 || k <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < k; i++ {
		u := san.NodeID(rng.IntN(n))
		total += sampleTriple(g, g.SocialNeighbors(u), rng)
	}
	return float64(total) / float64(2*k)
}

func refAverageAttrClustering(g *san.SAN, k int, rng *rand.Rand) float64 {
	m := g.NumAttrs()
	if m == 0 || k <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < k; i++ {
		a := san.AttrID(rng.IntN(m))
		total += sampleTriple(g, g.Members(a), rng)
	}
	return float64(total) / float64(2*k)
}

func refCachedAverageSocialClustering(c *NeighborCache, g *san.SAN, k int, rng *rand.Rand) float64 {
	n := g.NumSocial()
	if n == 0 || k <= 0 {
		return 0
	}
	total := 0
	for i := 0; i < k; i++ {
		u := san.NodeID(rng.IntN(n))
		total += sampleTriple(g, c.Neighbors(g, u), rng)
	}
	return float64(total) / float64(2*k)
}

// sampleTriple draws a uniform pair of distinct neighbors and returns
// F ∈ {0, 1, 2}: the number of directed links between them.  Centers
// with fewer than two neighbors score 0 (they have no triples and
// contribute c = 0 to the average).
func sampleTriple(g *san.SAN, nbrs []san.NodeID, rng *rand.Rand) int {
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	i := rng.IntN(d)
	j := rng.IntN(d - 1)
	if j >= i {
		j++
	}
	v, w := nbrs[i], nbrs[j]
	f := 0
	if g.HasSocialEdge(v, w) {
		f++
	}
	if g.HasSocialEdge(w, v) {
		f++
	}
	return f
}

// clusteringOracle holds one graph's pair of evolving neighbor caches:
// ref feeds the reference estimator and got the production one, so
// both see the same memoization history.
type clusteringOracle struct {
	name     string
	full     *san.SAN
	view     *san.SAN
	ref, got *NeighborCache
}

// check runs the three Algorithm 2 estimators and their references on
// identically seeded rngs and reports every estimate or rng position
// that differs bitwise.
func (o clusteringOracle) check(t *testing.T, k int, seed uint64) {
	t.Helper()
	for _, est := range []struct {
		name     string
		ref, got func(*rand.Rand) float64
	}{
		{"social",
			func(r *rand.Rand) float64 { return refAverageSocialClustering(o.full, k, r) },
			func(r *rand.Rand) float64 { return AverageSocialClustering(o.full, k, r) }},
		{"cached",
			func(r *rand.Rand) float64 { return refCachedAverageSocialClustering(o.ref, o.full, k, r) },
			func(r *rand.Rand) float64 { return o.got.AverageSocialClustering(o.full, k, r) }},
		{"attr",
			func(r *rand.Rand) float64 { return refAverageAttrClustering(o.view, k, r) },
			func(r *rand.Rand) float64 { return AverageAttrClustering(o.view, k, r) }},
	} {
		rr := rand.New(rand.NewPCG(seed, 5))
		rg := rand.New(rand.NewPCG(seed, 5))
		want, got := est.ref(rr), est.got(rg)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s/%s: estimate %v, reference %v", o.name, est.name, got, want)
		}
		if a, b := rg.Uint64(), rr.Uint64(); a != b {
			t.Errorf("%s/%s: rng out of step after the estimate (next draw %d, reference %d)", o.name, est.name, a, b)
		}
	}
}

func newClusteringOracle(name string, full, view *san.SAN) clusteringOracle {
	o := clusteringOracle{name: name, full: full, view: view, ref: NewNeighborCache(), got: NewNeighborCache()}
	o.ref.AddNodes(full.NumSocial())
	o.got.AddNodes(full.NumSocial())
	return o
}

// TestAlgorithm2MatchesReference pins the three Algorithm 2 estimators
// bit for bit, and their rng consumption draw for draw, to the
// sample-and-probe reference loops, under several GOMAXPROCS values.
func TestAlgorithm2MatchesReference(t *testing.T) {
	k := SampleSize(0.01, 100)
	forEachProcs(t, func(t *testing.T) {
		// Isolated nodes and attributes, and centers of degree 1, which
		// consume no pair draws.
		sparse := san.New(400, 40, 0)
		sparse.AddSocialNodes(400)
		for u := 0; u < 400; u += 2 {
			sparse.AddSocialEdge(san.NodeID(u), san.NodeID((u*13+5)%400))
		}
		for a := 0; a < 40; a++ {
			id := sparse.AddAttrNode(fmt.Sprint("a", a), san.Generic)
			for m := 0; m < a%4; m++ {
				sparse.AddAttrEdge(san.NodeID(a*9+m), id)
			}
		}
		oracles := []clusteringOracle{
			newClusteringOracle("empty", san.New(0, 0, 0), san.New(0, 0, 0)),
			newClusteringOracle("sparse", sparse, sparse),
		}
		for _, n := range []int{300, 3000} {
			g := core.Generate(core.NewDefaultParams(n))
			oracles = append(oracles, newClusteringOracle(fmt.Sprint("generate", n), g, g))
		}
		for i, o := range oracles {
			o.check(t, k, uint64(i)+1)
			o.check(t, 10, uint64(i)+100) // too few pairs to fan out
		}

		// The fold's evolving caches: invalidated from each day's delta,
		// checked every 14th day.
		ref, got := NewNeighborCache(), NewNeighborCache()
		quickFold(t, func(day int, full, view *san.SAN, fd *snapstore.Delta) {
			for _, c := range []*NeighborCache{ref, got} {
				c.AddNodes(fd.NewSocial)
				for _, e := range fd.SocialEdges {
					c.Invalidate(e.U)
					c.Invalidate(e.V)
				}
			}
			if day%14 == 0 {
				o := clusteringOracle{name: fmt.Sprint("quick/day", day), full: full, view: view, ref: ref, got: got}
				o.check(t, k, uint64(day))
			}
		})
	})
}

// forEachProcs runs f under GOMAXPROCS 1, 2 and 4: the parallel probes
// must give the same bits for every fan-out, including none.
func forEachProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// quickFold packs a quick-scale simulation (DailyBase 100, seed 42)
// into timelines and folds them forward, calling visit with each
// 1-based day's full SAN, crawl view and full-timeline delta.
func quickFold(t testing.TB, visit func(day int, full, view *san.SAN, fd *snapstore.Delta)) {
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
		day, gs, deltas, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		visit(day+1, gs[0], gs[1], deltas[0])
	}
}
