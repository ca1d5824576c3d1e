// Package hll implements HyperLogLog cardinality counters and the
// HyperANF algorithm of Boldi, Rosa and Vigna, which the paper uses to
// approximate the effective diameter of the Google+ social graph and
// its attribute analogue (§3.3, §4.1).
package hll

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Counter is a HyperLogLog register set.  The zero value is not usable;
// create counters with NewCounter.
type Counter struct {
	p    uint8 // log2(number of registers)
	regs []uint8
}

// NewCounter returns a HyperLogLog counter with 2^p registers.
// Precision p must be in [4, 16]; the standard error is ~1.04/sqrt(2^p).
func NewCounter(p uint8) *Counter {
	if p < 4 || p > 16 {
		panic("hll: precision must be in [4, 16]")
	}
	return &Counter{p: p, regs: make([]uint8, 1<<p)}
}

// splitmix64 is the finalizer of the SplitMix64 generator: a fast,
// high-quality 64-bit mixing function used to hash node IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash maps an item and seed to a 64-bit hash.  Exposed so tests and
// the HyperANF driver share one hash definition.
func Hash(item uint64, seed uint64) uint64 {
	return splitmix64(item ^ splitmix64(seed))
}

// Add inserts a pre-hashed item into the counter.
func (c *Counter) Add(hash uint64) {
	idx := hash >> (64 - c.p)
	rest := hash << c.p
	// Rank: position of the leftmost 1-bit of the remaining bits, in
	// [1, 64-p+1]; all-zero remainder maps to 64-p+1.
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if max := 64 - c.p + 1; rank > max {
		rank = max
	}
	if rank > c.regs[idx] {
		c.regs[idx] = rank
	}
}

// Union merges other into c (register-wise max).  It reports whether
// any register changed, which HyperANF uses for convergence detection.
//
// The merge runs eight registers per step (SWAR bytewise max): ranks
// are at most 64-p+1 < 0x80, so adding the per-byte sentinel 0x80 to
// x-y can never borrow across byte lanes, making the high bit of each
// lane an x >= y comparator.  HyperANF spends most of its time here —
// one union per directed edge into a counter that changed in the
// previous iteration.
func (c *Counter) Union(other *Counter) bool {
	return unionRegs(c.regs, other.regs)
}

// unionRegs is Union over raw register slices of equal length; HyperANF
// calls it on windows of its flat register arena.
func unionRegs(a, b []uint8) bool {
	const high = 0x8080808080808080
	const low = 0x0101010101010101
	changed := false
	for i := 0; i < len(a); i += 8 {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		if x == y {
			continue
		}
		ge := ((x | high) - y) & high  // per-lane: x_i >= y_i
		mask := (ge >> 7 & low) * 0xFF // expand comparator bit to full lane
		if max := x&mask | y&^mask; max != x {
			binary.LittleEndian.PutUint64(a[i:], max)
			changed = true
		}
	}
	return changed
}

// Clone returns an independent copy.
func (c *Counter) Clone() *Counter {
	n := &Counter{p: c.p, regs: make([]uint8, len(c.regs))}
	copy(n.regs, c.regs)
	return n
}

// pow2neg[r] is exactly 2^-r — the same value math.Pow(2, -r) returns
// for these integer exponents (both are exact powers of two), fetched
// without the transcendental-call overhead.  Ranks never exceed
// 64-p+1 <= 61.
var pow2neg = func() [64]float64 {
	var t [64]float64
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the estimated cardinality, with the standard
// small-range (linear counting) and large-range corrections of
// Flajolet et al.
func (c *Counter) Estimate() float64 {
	return estimate(c.p, c.regs)
}

// estimate is Estimate over a raw register slice of 2^p registers.
func estimate(p uint8, regs []uint8) float64 {
	m := float64(int(1) << p)
	var sum float64
	zeros := 0
	for _, r := range regs {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	alpha := alphaM(int(1) << p)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Linear counting for small cardinalities.
		return m * math.Log(m/float64(zeros))
	}
	const two32 = 1 << 32
	if e > two32/30 {
		return -two32 * math.Log(1-e/two32)
	}
	return e
}

func alphaM(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}
