package stats_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// The ref* functions are verbatim copies of the per-observation model
// comparison, which recomputed both normalizers for every observation.
// They are the oracle that the once-per-test normalizers must match bit
// for bit.

func refLognormalLogPMF(k int, mu, sigma float64) float64 {
	if k < 1 {
		return math.Inf(-1)
	}
	d := math.Log(float64(k)) - mu
	return -d*d/(2*sigma*sigma) - math.Log(float64(k)) - math.Log(stats.LognormalZ(mu, sigma))
}

func refPowerLawLogPMF(k int, alpha float64, xmin int) float64 {
	if k < xmin {
		return math.Inf(-1)
	}
	return -alpha*math.Log(float64(k)) - math.Log(stats.HurwitzZeta(alpha, float64(xmin)))
}

func refCompareLognormalPowerLaw(data []int, ln stats.LognormalFit, pl stats.PowerLawFit) (r, p float64) {
	lnTail := 0.0
	if pl.Xmin > 1 {
		head := 0.0
		for k := 1; k < pl.Xmin; k++ {
			head += math.Exp(refLognormalLogPMF(k, ln.Mu, ln.Sigma))
		}
		if head >= 1 {
			return math.Inf(-1), 0 // lognormal puts no mass on the tail
		}
		lnTail = math.Log(1 - head)
	}
	var diffs []float64
	for _, k := range data {
		if k < pl.Xmin {
			continue
		}
		d := (refLognormalLogPMF(k, ln.Mu, ln.Sigma) - lnTail) - refPowerLawLogPMF(k, pl.Alpha, pl.Xmin)
		diffs = append(diffs, d)
	}
	n := len(diffs)
	if n < 2 {
		return 0, 1
	}
	mean, std := stats.MeanStd(diffs)
	if std < 1e-12 {
		if mean > 0 {
			return math.Inf(1), 0
		} else if mean < 0 {
			return math.Inf(-1), 0
		}
		return 0, 1
	}
	r = mean * float64(n)
	z := mean * math.Sqrt(float64(n)) / std
	p = 2 * (1 - stats.NormalCDF(math.Abs(z)))
	return r, p
}

// sameBits reports whether a and b are the same float64 bit pattern
// (so NaN matches only an identical NaN, and 0 does not match -0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCompareLognormalPowerLawMatchesOracle pins the model comparison
// to the per-observation reference on lognormal, power-law and
// generated-network degree samples, under both the fitted models and
// hand-built degenerate ones.
func TestCompareLognormalPowerLawMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	type sample struct {
		name string
		data []int
	}
	var samples []sample
	for _, c := range []struct {
		mu, sigma float64
		n         int
	}{{0.5, 0.6, 3000}, {1.0, 0.3, 1000}, {1.8, 1.2, 800}, {2.5, 1.0, 500}} {
		data := make([]int, c.n)
		for i := range data {
			data[i] = stats.LognormalInt(rng, c.mu, c.sigma)
		}
		samples = append(samples, sample{"lognormal", data})
	}
	for _, c := range []struct {
		alpha float64
		xmin  int
		n     int
	}{{2.1, 1, 800}, {2.5, 3, 1500}, {3.2, 1, 500}, {1.8, 5, 200}} {
		s := stats.NewPowerLawSampler(c.alpha, c.xmin)
		data := make([]int, c.n)
		for i := range data {
			data[i] = s.Sample(rng)
		}
		samples = append(samples, sample{"power-law", data})
	}
	p := core.NewDefaultParams(100)
	p.Seed = 73
	g := core.Generate(p)
	samples = append(samples,
		sample{"model-outdeg", metrics.OutDegrees(g)},
		sample{"model-indeg", metrics.InDegrees(g)})

	constant := make([]int, 50)
	for i := range constant {
		constant[i] = 5
	}
	samples = append(samples,
		sample{"empty", nil},
		sample{"all-ones", []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		sample{"constant", constant})

	check := func(name string, data []int, ln stats.LognormalFit, pl stats.PowerLawFit) {
		t.Helper()
		r, pv := stats.CompareLognormalPowerLaw(data, ln, pl)
		wr, wp := refCompareLognormalPowerLaw(data, ln, pl)
		if !sameBits(r, wr) || !sameBits(pv, wp) {
			t.Errorf("%s (xmin=%d): got r=%v p=%v, reference r=%v p=%v", name, pl.Xmin, r, pv, wr, wp)
		}
	}
	for _, s := range samples {
		ln := stats.FitDiscreteLognormal(s.data)
		pl := stats.FitDiscretePowerLaw(s.data, 0)
		check(s.name, s.data, ln, pl)

		// Raise xmin above 1 to force the lognormal head
		// renormalization where the fit did not.
		if pl.Xmin == 1 {
			forced := pl
			forced.Xmin = 3
			check(s.name+"/xmin=3", s.data, ln, forced)
		}
	}

	// A tail with a single observation.
	short := []int{1, 1, 2, 2, 2, 3, 4, 4, 9}
	check("short-tail", short, stats.FitDiscreteLognormal(short), stats.PowerLawFit{Alpha: 2.5, Xmin: 9})

	// A lognormal concentrated on k = 1 leaves (almost) no tail mass
	// above a raised xmin.
	ones := []int{1, 1, 1, 1, 1, 1, 2}
	check("head-mass", ones, stats.FitDiscreteLognormal(ones), stats.PowerLawFit{Alpha: 2, Xmin: 2})
}

// TestLogPMFsMatchOracle pins the public log-PMFs, now wrappers over
// the normalizer-taking forms, to the reference expressions, including
// k below the support.
func TestLogPMFsMatchOracle(t *testing.T) {
	for _, c := range []struct{ mu, sigma float64 }{{0, 0.5}, {1.2, 0.9}, {1.8, 1.2}, {2.5, 1.0}} {
		for k := -1; k <= 300; k++ {
			got, want := stats.LognormalLogPMF(k, c.mu, c.sigma), refLognormalLogPMF(k, c.mu, c.sigma)
			if !sameBits(got, want) {
				t.Fatalf("LognormalLogPMF(%d, %v, %v) = %v, reference %v", k, c.mu, c.sigma, got, want)
			}
		}
	}
	for _, c := range []struct {
		alpha float64
		xmin  int
	}{{1.5, 1}, {2.2, 2}, {3.1, 7}, {math.NaN(), 1}} {
		for k := -1; k <= 300; k++ {
			got, want := stats.PowerLawLogPMF(k, c.alpha, c.xmin), refPowerLawLogPMF(k, c.alpha, c.xmin)
			if !sameBits(got, want) {
				t.Fatalf("PowerLawLogPMF(%d, %v, %d) = %v, reference %v", k, c.alpha, c.xmin, got, want)
			}
		}
	}
}
