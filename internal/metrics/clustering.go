// Package metrics implements the measurement suite of the paper:
// reciprocity (global and fine-grained), social and attribute density,
// directed clustering coefficients (exact and the constant-time
// sampling estimator of Appendix A), degree extraction, joint-degree
// (knn) curves, assortativity coefficients, and attribute distance.
package metrics

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"repro/internal/san"
)

// SampleSize returns K = ⌈ln(2ν) / (2ε²)⌉, the number of samples
// needed by Algorithm 2 so that the estimated average clustering
// coefficient is within ε of the truth with probability at least 1-1/ν
// (Theorem 3).  The paper uses ε = 0.002, ν = 100.
func SampleSize(eps float64, nu float64) int {
	return int(math.Ceil(math.Log(2*nu) / (2 * eps * eps)))
}

// linksAmong counts L(u): the number of directed social links among
// the given set of social nodes (each direction counted separately).
func linksAmong(g *san.SAN, nodes []san.NodeID) int {
	l := 0
	for i, v := range nodes {
		for j, w := range nodes {
			if i == j {
				continue
			}
			if g.HasSocialEdge(v, w) {
				l++
			}
		}
	}
	return l
}

// SocialClustering returns the directed clustering coefficient
// c(u) = L(u) / (|Γs(u)|(|Γs(u)|-1)) of social node u (§3.4); 0 when u
// has fewer than two social neighbors.  Cost is O(|Γs(u)|²).
func SocialClustering(g *san.SAN, u san.NodeID) float64 {
	nbrs := g.SocialNeighbors(u)
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	return float64(linksAmong(g, nbrs)) / float64(d*(d-1))
}

// AttrClustering returns the attribute clustering coefficient c(a) of
// attribute node a (§4.1): the directed link density among the users
// declaring a.  For attributes with more than maxExact members the
// pair census is estimated from maxExact² sampled ordered pairs
// (deterministically seeded), keeping the cost bounded for celebrity
// attributes.  Pass maxExact <= 0 for a default of 64.
func AttrClustering(g *san.SAN, a san.AttrID, maxExact int, rng *rand.Rand) float64 {
	if maxExact <= 0 {
		maxExact = 64
	}
	members := g.Members(a)
	d := len(members)
	if d < 2 {
		return 0
	}
	if d <= maxExact {
		return float64(linksAmong(g, members)) / float64(d*(d-1))
	}
	// Sample ordered pairs uniformly.
	k := maxExact * maxExact
	hits := 0
	for i := 0; i < k; i++ {
		v := members[rng.IntN(d)]
		w := members[rng.IntN(d)]
		if v == w {
			i-- // resample: ordered pairs are over distinct nodes
			continue
		}
		if g.HasSocialEdge(v, w) {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// AverageSocialClusteringExact computes Cs = (1/|Vs|) Σ c(u) exactly.
// O(Σ deg²); use on small graphs and in tests.
func AverageSocialClusteringExact(g *san.SAN) float64 {
	n := g.NumSocial()
	if n == 0 {
		return 0
	}
	var sum float64
	for u := 0; u < n; u++ {
		sum += SocialClustering(g, san.NodeID(u))
	}
	return sum / float64(n)
}

// AverageSocialClustering estimates Cs with Algorithm 2: K uniform
// triple samples, each scoring F ∈ {0,1,2} for the connectivity of a
// random neighbor pair of a random node, and C̃ = ΣF / (2K).
func AverageSocialClustering(g *san.SAN, k int, rng *rand.Rand) float64 {
	var buf []san.NodeID
	return algorithm2(g, k, g.NumSocial(), rng, func(u int) []san.NodeID {
		buf = g.AppendSocialNeighbors(buf[:0], san.NodeID(u))
		return buf
	})
}

// AverageAttrClustering estimates Ca = (1/|Va|) Σ c(a) with
// Algorithm 2 over Ω = Va.
func AverageAttrClustering(g *san.SAN, k int, rng *rand.Rand) float64 {
	return algorithm2(g, k, g.NumAttrs(), rng, func(a int) []san.NodeID {
		return g.Members(san.AttrID(a))
	})
}

// neighborPair is one drawn Algorithm 2 sample: an ordered pair of
// distinct neighbors of the sampled center.
type neighborPair struct{ v, w san.NodeID }

// algorithm2 is the estimator all three Algorithm 2 entry points share.
// It draws k uniform centers among [0, centers), reading each one's
// neighbor list through nbrs, and for every center with at least two
// neighbors a uniform pair of distinct neighbors.  Centers with fewer
// than two neighbors consume no further draws and score F = 0 (they
// have no triples and contribute c = 0 to the average).
//
// All draws happen first, sequentially, so the rng stream is the
// estimator's alone to define; nbrs may reuse its returned slice
// between calls.  Only then are the HasSocialEdge probes evaluated, in
// parallel (linkedPairs), and C̃ = ΣF / (2k).
func algorithm2(g *san.SAN, k, centers int, rng *rand.Rand, nbrs func(c int) []san.NodeID) float64 {
	if centers == 0 || k <= 0 {
		return 0
	}
	pairs := make([]neighborPair, 0, k)
	for s := 0; s < k; s++ {
		ns := nbrs(rng.IntN(centers))
		d := len(ns)
		if d < 2 {
			continue
		}
		i := rng.IntN(d)
		j := rng.IntN(d - 1)
		if j >= i {
			j++
		}
		pairs = append(pairs, neighborPair{ns[i], ns[j]})
	}
	return float64(linkedPairs(g, pairs)) / float64(2*k)
}

// minProbeChunk is the fewest pairs worth a goroutine of their own.
const minProbeChunk = 2048

// linkedPairs returns ΣF over pairs: the number of directed social
// links between the two nodes of each pair.  The probes are pure reads
// of g, so up to GOMAXPROCS goroutines each count one contiguous chunk;
// the chunk counts are integers, so their sum does not depend on the
// split.
func linkedPairs(g *san.SAN, pairs []neighborPair) int {
	workers := min(runtime.GOMAXPROCS(0), len(pairs)/minProbeChunk)
	if workers <= 1 {
		return countLinks(g, pairs)
	}
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := range counts {
		chunk := pairs[w*len(pairs)/workers : (w+1)*len(pairs)/workers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[w] = countLinks(g, chunk)
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func countLinks(g *san.SAN, pairs []neighborPair) int {
	f := 0
	for _, p := range pairs {
		if g.HasSocialEdge(p.v, p.w) {
			f++
		}
		if g.HasSocialEdge(p.w, p.v) {
			f++
		}
	}
	return f
}

// DegreeClusteringPoint pairs a degree with the average clustering
// coefficient of nodes having that degree (Figures 9 and 17).
type DegreeClusteringPoint struct {
	Degree int
	C      float64
	N      int
}

// SocialClusteringByDegree returns, for every social-neighbor count d
// present in the graph, the average social clustering coefficient of
// nodes with that degree.  Nodes are subsampled to at most perNode
// clustering evaluations per degree class when perNode > 0.
func SocialClusteringByDegree(g *san.SAN, perNode int, rng *rand.Rand) []DegreeClusteringPoint {
	byDeg := make(map[int][]san.NodeID)
	for u := 0; u < g.NumSocial(); u++ {
		d := g.SocialNeighborCount(san.NodeID(u))
		if d >= 2 {
			byDeg[d] = append(byDeg[d], san.NodeID(u))
		}
	}
	return clusteringByDegree(byDeg, perNode, rng, func(u san.NodeID) float64 {
		return SocialClustering(g, u)
	})
}

// AttrClusteringByDegree returns, for every member count d present,
// the average attribute clustering coefficient of attribute nodes with
// that social degree.
func AttrClusteringByDegree(g *san.SAN, perNode int, rng *rand.Rand) []DegreeClusteringPoint {
	byDeg := make(map[int][]san.NodeID)
	for a := 0; a < g.NumAttrs(); a++ {
		d := g.SocialDegreeOfAttr(san.AttrID(a))
		if d >= 2 {
			byDeg[d] = append(byDeg[d], san.NodeID(a))
		}
	}
	return clusteringByDegree(byDeg, perNode, rng, func(id san.NodeID) float64 {
		return AttrClustering(g, san.AttrID(id), 0, rng)
	})
}

func clusteringByDegree(byDeg map[int][]san.NodeID, perNode int, rng *rand.Rand, c func(san.NodeID) float64) []DegreeClusteringPoint {
	degs := make([]int, 0, len(byDeg))
	for d := range byDeg {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	out := make([]DegreeClusteringPoint, 0, len(degs))
	for _, d := range degs {
		nodes := byDeg[d]
		n := len(nodes)
		if perNode > 0 && n > perNode {
			// Uniform subsample without replacement (partial shuffle).
			for i := 0; i < perNode; i++ {
				j := i + rng.IntN(n-i)
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
			nodes = nodes[:perNode]
		}
		var sum float64
		for _, u := range nodes {
			sum += c(u)
		}
		out = append(out, DegreeClusteringPoint{Degree: d, C: sum / float64(len(nodes)), N: n})
	}
	return out
}

// AverageAttrClusteringByType computes the average attribute
// clustering coefficient per attribute type (Figure 13b).  Attribute
// nodes with fewer than two members count as zero, as in the averages.
func AverageAttrClusteringByType(g *san.SAN, rng *rand.Rand) map[san.AttrType]float64 {
	sums := make(map[san.AttrType]float64)
	counts := make(map[san.AttrType]int)
	for a := 0; a < g.NumAttrs(); a++ {
		t := g.AttrTypeOf(san.AttrID(a))
		sums[t] += AttrClustering(g, san.AttrID(a), 0, rng)
		counts[t]++
	}
	out := make(map[san.AttrType]float64, len(sums))
	for t, s := range sums {
		out[t] = s / float64(counts[t])
	}
	return out
}
