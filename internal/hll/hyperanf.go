package hll

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/san"
)

// NeighborhoodFunction holds the HyperANF output: N[t] estimates the
// number of ordered pairs (u, v) with a directed path from u to v of
// length at most t.  N[0] counts the nodes themselves.
type NeighborhoodFunction struct {
	N []float64
}

// Options configures a HyperANF run.
type Options struct {
	Precision uint8  // HLL precision p; 0 means 8 (256 registers, ~6.5% error)
	Seed      uint64 // hash seed
	MaxIter   int    // safety bound; 0 means 3*log2(n)+32
}

// HyperANF runs the iterative HyperANF algorithm on the directed social
// graph of g: counter(u) starts as {u} and each iteration unions in the
// counters of u's out-neighbors, so after t rounds counter(u)
// approximates the t-ball around u.  Iteration stops when no counter
// changes (exact convergence of the register sets).  Precision outside
// [4, 16] panics, as NewCounter does.
//
// Two things keep the run cheap without changing a bit of its output:
//
//   - Skip rule.  Iteration t unions cur[v] into next[u] only if v's
//     counter changed in iteration t-1 (every counter counts as changed
//     before iteration 0).  An unchanged cur[v] equals the previous
//     round's counter of v, which was already merged into cur[u], so the
//     union could not move a register.  For the same reason a node whose
//     own counter did not change already holds cur[u] in the next
//     buffer and needs no copy, and its cached estimate stays valid.
//   - Parallel sweep.  Each iteration's node range is split into chunks
//     that GOMAXPROCS goroutines claim from an atomic counter.  A node u
//     writes only next[u], its own changed bit and its own estimate, so
//     the sweep is race-free; register max does not depend on order, and
//     N[t] is summed sequentially in node order.
func HyperANF(g *san.SAN, opt Options) NeighborhoodFunction {
	p := opt.Precision
	if p == 0 {
		p = 8
	}
	if p < 4 || p > 16 {
		panic("hll: precision must be in [4, 16]")
	}
	n := g.NumSocial()
	m := 1 << p
	// One flat arena per buffer: node u's registers are [u*m, (u+1)*m).
	cur := make([]uint8, n*m)
	next := make([]uint8, n*m)
	est := make([]float64, n)
	prevChanged := make([]bool, n) // changed in the previous iteration
	changed := make([]bool, n)     // changed in this iteration
	sweep(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			c := Counter{p: p, regs: cur[u*m : (u+1)*m]}
			c.Add(Hash(uint64(u), opt.Seed))
			est[u] = estimate(p, c.regs)
			prevChanged[u] = true
		}
	})
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 32
		for s := n; s > 1; s >>= 1 {
			maxIter += 3
		}
	}
	nf := NeighborhoodFunction{N: []float64{sumInOrder(est)}}
	for iter := 0; iter < maxIter; iter++ {
		sweep(n, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				nu := next[u*m : (u+1)*m]
				if prevChanged[u] {
					copy(nu, cur[u*m:(u+1)*m])
				}
				ch := false
				for _, v := range g.Out(san.NodeID(u)) {
					if prevChanged[v] && unionRegs(nu, cur[int(v)*m:(int(v)+1)*m]) {
						ch = true
					}
				}
				if ch {
					est[u] = estimate(p, nu)
				}
				changed[u] = ch
			}
		})
		cur, next = next, cur
		prevChanged, changed = changed, prevChanged
		nf.N = append(nf.N, sumInOrder(est))
		if !slices.Contains(prevChanged, true) {
			break
		}
	}
	return nf
}

// sweepChunk is the number of nodes a sweep goroutine claims at a time:
// small enough to balance hub-heavy ranges, large enough that the
// atomic claim is noise.
const sweepChunk = 256

// sweep calls body over [0, n) in chunks claimed by GOMAXPROCS
// goroutines and returns when every chunk is done.  Bodies must only
// write state owned by the nodes of their own chunk.
func sweep(n int, body func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+sweepChunk-1)/sweepChunk)
	if workers <= 1 {
		body(0, n)
		return
	}
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(claimed.Add(sweepChunk)) - sweepChunk
				if lo >= n {
					return
				}
				body(lo, min(lo+sweepChunk, n))
			}
		}()
	}
	wg.Wait()
}

// sumInOrder adds xs left to right; N[t] must be summed in node order
// to stay bitwise reproducible.
func sumInOrder(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// EffectiveDiameter returns the q-fraction effective diameter derived
// from the neighborhood function: the (interpolated) smallest distance
// d such that N(d) >= q * N(max).  The paper uses q = 0.9.
func (nf NeighborhoodFunction) EffectiveDiameter(q float64) float64 {
	if len(nf.N) == 0 {
		return 0
	}
	last := nf.N[len(nf.N)-1]
	target := q * last
	for d := 0; d < len(nf.N); d++ {
		if nf.N[d] >= target {
			if d == 0 {
				return 0
			}
			// Linear interpolation between d-1 and d.
			lo, hi := nf.N[d-1], nf.N[d]
			if hi <= lo {
				return float64(d)
			}
			return float64(d-1) + (target-lo)/(hi-lo)
		}
	}
	return float64(len(nf.N) - 1)
}

// ExactNeighborhoodFunction computes the exact neighborhood function by
// running a BFS from every node.  O(n·m): tests and small graphs only.
func ExactNeighborhoodFunction(g *san.SAN) NeighborhoodFunction {
	n := g.NumSocial()
	var counts []float64
	for u := 0; u < n; u++ {
		dist := g.BFSDirected(san.NodeID(u))
		for _, d := range dist {
			if d < 0 {
				continue
			}
			for len(counts) <= int(d) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
	}
	// Convert per-distance counts into the cumulative N(t).
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return NeighborhoodFunction{N: counts}
}

// EffectiveAttrDiameter estimates the effective attribute diameter of
// §4.1 by sampling: attribute distance dist(a, b) is the minimum social
// distance between a member of a and a member of b, plus one.  For each
// of k sampled attribute nodes it runs one multi-source BFS and records
// the distance to every other attribute with at least one member,
// then returns the q-percentile (interpolated) of the sampled distances.
//
// pick selects which attributes are BFS sources (e.g. round-robin or
// random); it receives the sample index and must return a valid AttrID.
func EffectiveAttrDiameter(g *san.SAN, k int, q float64, pick func(i int) san.AttrID) float64 {
	var dists []float64
	// minDistTo[b] over members is recomputed per source.
	for i := 0; i < k; i++ {
		a := pick(i)
		members := g.Members(a)
		if len(members) == 0 {
			continue
		}
		dist := g.MultiSourceBFSDirected(members)
		for b := 0; b < g.NumAttrs(); b++ {
			if san.AttrID(b) == a {
				continue
			}
			best := int32(-1)
			for _, u := range g.Members(san.AttrID(b)) {
				if d := dist[u]; d >= 0 && (best < 0 || d < best) {
					best = d
				}
			}
			if best >= 0 {
				dists = append(dists, float64(best)+1)
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	return percentile(dists, q*100)
}

func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
