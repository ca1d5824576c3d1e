package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sameDayMetrics compares two per-day records field by field, treating
// NaN as equal to NaN (diameters off-schedule, degenerate early-day
// fits).  Everything else must match bitwise: the fold path is
// advertised as producing *identical* metrics, not merely close ones.
func sameDayMetrics(a, b DayMetrics) error {
	if a.Day != b.Day || a.Stats != b.Stats {
		return fmt.Errorf("day/stats diverge: %+v vs %+v", a, b)
	}
	fields := []struct {
		name string
		x, y float64
	}{
		{"Recip", a.Recip, b.Recip},
		{"SocialDensity", a.SocialDensity, b.SocialDensity},
		{"AttrDensity", a.AttrDensity, b.AttrDensity},
		{"Assort", a.Assort, b.Assort},
		{"AttrAssort", a.AttrAssort, b.AttrAssort},
		{"CC", a.CC, b.CC},
		{"AttrCC", a.AttrCC, b.AttrCC},
		{"MuOut", a.MuOut, b.MuOut},
		{"SigmaOut", a.SigmaOut, b.SigmaOut},
		{"MuIn", a.MuIn, b.MuIn},
		{"SigmaIn", a.SigmaIn, b.SigmaIn},
		{"MuAttrDeg", a.MuAttrDeg, b.MuAttrDeg},
		{"SigmaAttrDeg", a.SigmaAttrDeg, b.SigmaAttrDeg},
		{"AlphaAttrSocial", a.AlphaAttrSocial, b.AlphaAttrSocial},
		{"DiamSocial", a.DiamSocial, b.DiamSocial},
		{"DiamAttr", a.DiamAttr, b.DiamAttr},
	}
	for _, f := range fields {
		if !eqNaN(f.x, f.y) {
			return fmt.Errorf("%s: %v vs %v", f.name, f.x, f.y)
		}
	}
	return nil
}

// TestFoldMatchesRecompute is the tentpole's equivalence gate: the
// incremental fold must produce exactly the per-day metrics the old
// MapN snapshot-recompute path produces, diameters included.
func TestFoldMatchesRecompute(t *testing.T) {
	cfg := goldenConfig() // diameters every 6 days, exercised cheaply
	ds := GetDataset(cfg) // fold-built (Recompute is false)
	foldDays := ds.Days()

	recDays, _, _ := recomputeDayMetrics(cfg, ds.FullTimeline(), ds.ViewTimeline())
	if len(recDays) != len(foldDays) {
		t.Fatalf("recompute measured %d days, fold %d", len(recDays), len(foldDays))
	}
	for i := range foldDays {
		if err := sameDayMetrics(recDays[i], foldDays[i]); err != nil {
			t.Fatalf("day %d: fold diverges from recompute: %v", i+1, err)
		}
	}
}

// TestFoldIndependentOfGOMAXPROCS pins the per-day determinism
// contract of measureDaySampled: the estimators fan out to GOMAXPROCS
// goroutines, and every DayMetrics field must come out the same for
// any fan-out, including none.
func TestFoldIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := goldenConfig()
	ds := GetDataset(cfg)
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			days := NewTimelineDataset(cfg, ds.FullTimeline(), ds.ViewTimeline()).Days()
			for i, m := range days {
				if err := sameDayMetrics(m, ds.Days()[i]); err != nil {
					t.Fatalf("day %d: %v", i+1, err)
				}
			}
		})
	}
}

// countdownCtx cancels itself after a fixed number of Err checks —
// a deterministic stand-in for a client disconnecting mid-build.  The
// cursor (and the sim perDay hook) polls Err once per day, so the
// countdown positions the cancellation at an exact day boundary.
type countdownCtx struct {
	context.Context
	checks int
}

func (c *countdownCtx) Err() error {
	if c.checks <= 0 {
		return context.Canceled
	}
	c.checks--
	return nil
}

// TestDatasetBuildResume is the resumability gate for both build
// backends: cancel a build mid-walk (several times, at different
// days), resume it to completion, and require the result to be
// bitwise-identical to an uninterrupted twin.  The Progress day count
// additionally proves no day was ever measured twice.
func TestDatasetBuildResume(t *testing.T) {
	cfg := goldenConfig()
	control := GetDataset(cfg)
	wantDays := control.Days()

	t.Run("timeline", func(t *testing.T) {
		prog := &obs.Progress{}
		rcfg := cfg
		rcfg.Progress = prog
		ds := NewTimelineDataset(rcfg, control.FullTimeline(), control.ViewTimeline())
		cancels := 0
		for _, checks := range []int{3, 11, 1} {
			err := ds.Build(&countdownCtx{Context: context.Background(), checks: checks})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Build with countdown %d: %v, want context.Canceled", checks, err)
			}
			cancels++
		}
		if err := ds.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := ds.Days()
		if len(got) != len(wantDays) {
			t.Fatalf("resumed build measured %d days, want %d", len(got), len(wantDays))
		}
		for i := range got {
			if err := sameDayMetrics(got[i], wantDays[i]); err != nil {
				t.Fatalf("day %d: resumed build diverges: %v", i+1, err)
			}
		}
		if n := prog.Days(); n != int64(len(wantDays)) {
			t.Errorf("progress counted %d folded days over %d cancels, want %d (no day re-measured)",
				n, cancels, len(wantDays))
		}
		if ds.HalfView().Stats() != control.HalfView().Stats() {
			t.Errorf("halfway views diverge: %+v vs %+v", ds.HalfView().Stats(), control.HalfView().Stats())
		}
		if ds.FinalFull().Stats() != control.FinalFull().Stats() {
			t.Errorf("final full SANs diverge: %+v vs %+v", ds.FinalFull().Stats(), control.FinalFull().Stats())
		}
	})

	t.Run("sim", func(t *testing.T) {
		// A private handle (not GetDataset) so the shared cache never
		// holds a half-built dataset.
		ds := &Dataset{Cfg: cfg, build: buildSimDataset}
		// First cancel lands mid-simulation, later ones mid-fold.
		for _, checks := range []int{5, 40, 80} {
			err := ds.Build(&countdownCtx{Context: context.Background(), checks: checks})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Build with countdown %d: %v, want context.Canceled", checks, err)
			}
		}
		if err := ds.Build(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := ds.Days()
		if len(got) != len(wantDays) {
			t.Fatalf("resumed sim build measured %d days, want %d", len(got), len(wantDays))
		}
		for i := range got {
			if err := sameDayMetrics(got[i], wantDays[i]); err != nil {
				t.Fatalf("day %d: resumed sim build diverges: %v", i+1, err)
			}
		}
		if ds.FinalFull().Stats() != control.FinalFull().Stats() {
			t.Errorf("final full SANs diverge: %+v vs %+v", ds.FinalFull().Stats(), control.FinalFull().Stats())
		}
	})
}

// TestRecomputeDatasetMatchesFold drives the recompute path through
// the public Dataset API (Config.Recompute) and checks the halfway and
// final snapshots agree with the fold-captured ones.
func TestRecomputeDatasetMatchesFold(t *testing.T) {
	cfg := goldenConfig()
	fold := GetDataset(cfg)
	rcfg := cfg
	rcfg.Recompute = true
	rec := NewTimelineDataset(rcfg, fold.FullTimeline(), fold.ViewTimeline())
	for i, m := range rec.Days() {
		if err := sameDayMetrics(m, fold.Days()[i]); err != nil {
			t.Fatalf("day %d: %v", i+1, err)
		}
	}
	tl := NewTimelineDataset(cfg, fold.FullTimeline(), fold.ViewTimeline())
	if tl.HalfView().Stats() != rec.HalfView().Stats() {
		t.Errorf("halfway views diverge: %+v vs %+v", tl.HalfView().Stats(), rec.HalfView().Stats())
	}
	if tl.FinalView().Stats() != rec.FinalView().Stats() {
		t.Errorf("final views diverge: %+v vs %+v", tl.FinalView().Stats(), rec.FinalView().Stats())
	}
	if tl.FinalFull().Stats() != rec.FinalFull().Stats() {
		t.Errorf("final full SANs diverge: %+v vs %+v", tl.FinalFull().Stats(), rec.FinalFull().Stats())
	}
}

// TestRecomputeCachesSizedToWorkers is the regression test for the
// hardcoded 4-entry snapshot caches: with more workers than cache
// slots, MapN chunk heads evicted each other and every sweep rebuilt
// chunks from day 0.  Sized to the worker count, a full sweep must
// complete with zero evictions in both stores.
func TestRecomputeCachesSizedToWorkers(t *testing.T) {
	cfg := goldenConfig()
	cfg.Workers = 8 // more workers than the old fixed cache size
	ds := GetDataset(goldenConfig())
	days, fullStore, viewStore := recomputeDayMetrics(cfg, ds.FullTimeline(), ds.ViewTimeline())
	if len(days) != ds.FullTimeline().NumDays() {
		t.Fatalf("measured %d days, want %d", len(days), ds.FullTimeline().NumDays())
	}
	if s := fullStore.Stats(); s.Evictions != 0 {
		t.Errorf("full store evicted %d chunk heads during the sweep (stats %+v)", s.Evictions, s)
	}
	if s := viewStore.Stats(); s.Evictions != 0 {
		t.Errorf("view store evicted %d chunk heads during the sweep (stats %+v)", s.Evictions, s)
	}
}

// BenchmarkRender pins the figure-table renderer: a dense figure (many
// series sharing many X values) used to pay a linear series scan per
// cell.
func BenchmarkRender(b *testing.B) {
	fig := Figure{ID: "bench", Title: "dense"}
	const points = 600
	for s := 0; s < 12; s++ {
		sr := Series{Name: fmt.Sprintf("s%d", s)}
		for p := 0; p < points; p++ {
			sr.X = append(sr.X, float64(p))
			sr.Y = append(sr.Y, math.Sqrt(float64(s*p)))
		}
		fig.Series = append(fig.Series, sr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Render(fig)
		if !strings.Contains(out, "dense") {
			b.Fatal("bad render")
		}
	}
}
