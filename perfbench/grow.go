package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// checkpointEvery is the grow workload's checkpoint cadence, as
// `sangen -checkpoint-every 7`.
const checkpointEvery = 7

// halfwayDay is the paper's halfway crawl; figures read its snapshot.
const halfwayDay = 49

// growJob simulates the gplus model for cfg.Days days, streaming the
// full SAN and the crawl view through two StreamWriters, flushing both
// and writing the simulator state every 7th day, and finalizing both
// files.  Traced, it passes no view sink and calls CrawlView and the
// view writer itself, so that each layer can be timed; the files must
// come out byte-identical either way.
func growJob(j job) (*result, error) {
	tr := (*Tracer)(nil)
	if j.Traced {
		tr = newTracer(j.SpanBase)
	}
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = j.DailyBase
	cfg.Seed = j.Seed
	if err := os.MkdirAll(j.Dir, 0o755); err != nil {
		return nil, err
	}
	fullPath, viewPath := filepath.Join(j.Dir, "full.tl"), filepath.Join(j.Dir, "view.tl")
	ckptPath := filepath.Join(j.Dir, "state.ckpt")
	r := newResult()

	t0 := time.Now()
	root, endRoot := tr.Start("grow", 0)
	fw, err := snapstore.NewStreamWriter(fullPath)
	if err != nil {
		return nil, err
	}
	defer fw.Abort()
	vw, err := snapstore.NewStreamWriter(viewPath)
	if err != nil {
		return nil, err
	}
	defer vw.Abort()
	sim := gplus.New(cfg)

	// Each day's span covers the interval since the previous day
	// ended; its ID is reserved up front because the full writer's
	// Append runs before the per-day hook.
	dayID := tr.NewID()
	var fullSink, viewSink snapstore.DaySink = fw, vw
	var timedFull *timedSink
	if tr != nil {
		timedFull = &timedSink{w: fw, tr: tr, name: "snapstore.encode_full", parent: dayID}
		fullSink, viewSink = timedFull, nil
	}
	var ckptBytes int64
	last := t0
	hook := func(day int, _, _ *san.SAN) error {
		dayStart := last
		if tr != nil {
			_, end := tr.Start("san.crawl_view", dayID)
			v := sim.CrawlView()
			end()
			_, end = tr.Start("snapstore.encode_view", dayID)
			err := vw.Append(v)
			end()
			if err != nil {
				return err
			}
		}
		if day%checkpointEvery == 0 && day < cfg.Days {
			_, end := tr.Start("snapstore.flush", dayID)
			err := fw.Flush()
			if err == nil {
				err = vw.Flush()
			}
			end()
			if err != nil {
				return err
			}
			_, end = tr.Start("gplus.checkpoint", dayID)
			ckptBytes, err = writeState(ckptPath, sim)
			end()
			if err != nil {
				return err
			}
			if day == halfwayDay {
				r.Metrics["first_figure_s"] = time.Since(t0).Seconds()
			}
		}
		now := time.Now()
		r.Samples = append(r.Samples, float64(now.Sub(dayStart))/1e6)
		last = now
		if tr != nil {
			tr.Add(Span{ID: dayID, Parent: root, Name: "gplus.day", Start: dayStart.UnixNano(), End: now.UnixNano()})
			dayID = tr.NewID()
			timedFull.parent = dayID
		}
		return nil
	}
	if err := sim.StreamTimelines(1, 0, fullSink, viewSink, hook); err != nil {
		return nil, err
	}
	_, end := tr.Start("snapstore.finalize", root)
	err = fw.Finalize()
	if err == nil {
		err = vw.Finalize()
	}
	end()
	if err != nil {
		return nil, err
	}
	endRoot()
	r.Metrics["wall_s"] = time.Since(t0).Seconds()

	// Output checks, outside the timed region.
	g := sim.G
	checkTimeline(r, "full", fullPath, cfg.Days, g.Stats())
	checkTimeline(r, "view", viewPath, cfg.Days, sim.CrawlView().Stats())
	r.Hashes = map[string]string{"full": fileHash(fullPath), "view": fileHash(viewPath)}
	r.Metrics["gplus.users"] = float64(g.NumSocial())
	r.Metrics["gplus.social_links"] = float64(g.NumSocialEdges())
	r.Metrics["gplus.attr_links"] = float64(g.NumAttrEdges())
	r.Metrics["snapstore.full_bytes"] = fileSize(fullPath)
	r.Metrics["snapstore.view_bytes"] = fileSize(viewPath)
	r.Metrics["gplus.checkpoint_bytes"] = float64(ckptBytes)
	r.Spans = tr.Spans()
	return r, nil
}

// timedSink times a StreamWriter's Append as spans named name.
type timedSink struct {
	w      *snapstore.StreamWriter
	tr     *Tracer
	name   string
	parent int64
}

func (s *timedSink) Append(g *san.SAN) error {
	start := time.Now().UnixNano()
	err := s.w.Append(g)
	s.tr.Add(Span{Parent: s.parent, Name: s.name, Start: start, End: time.Now().UnixNano()})
	return err
}

func (s *timedSink) PackedBytes() int { return s.w.PackedBytes() }

// writeState atomically replaces path with the simulator state and
// returns its size.
func writeState(path string, sim *gplus.Simulator) (int64, error) {
	var n int64
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := sim.WriteState(cw)
		n = cw.n
		return err
	})
	return n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// checkTimeline checks that a finalized timeline loads with the
// expected day count and that its last day reconstructs to want.
func checkTimeline(r *result, what, path string, days int, want san.Stats) {
	tl, err := snapstore.LoadFile(path)
	if err != nil {
		r.check(false, "%s timeline: %v", what, err)
		return
	}
	r.check(tl.NumDays() == days, "%s timeline has %d days, want %d", what, tl.NumDays(), days)
	g, err := tl.ReconstructAt(tl.NumDays() - 1)
	if err != nil {
		r.check(false, "%s timeline last day: %v", what, err)
		return
	}
	r.check(g.Stats() == want, "%s timeline last day %+v, simulator %+v", what, g.Stats(), want)
}

func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "error: " + err.Error()
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// growLayers turns traced grow spans into the per-layer metrics.
func growLayers(spans []Span) map[string]float64 {
	spans = withSelfTimes(spans)
	return map[string]float64{
		"gplus.sim_s":             sumSelf(spans, "gplus.day"),
		"san.crawl_view_s":        sumDur(spans, "san.crawl_view"),
		"snapstore.encode_full_s": sumDur(spans, "snapstore.encode_full"),
		"snapstore.encode_view_s": sumDur(spans, "snapstore.encode_view"),
		"snapstore.flush_s":       sumDur(spans, "snapstore.flush"),
		"snapstore.finalize_s":    sumDur(spans, "snapstore.finalize"),
		"gplus.checkpoint_s":      sumDur(spans, "gplus.checkpoint"),
	}
}
