package snapstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gplus"
	"repro/internal/san"
	"repro/internal/snapstore"
)

// refViewTimeline is the reference encoder for crawl-view timelines:
// it simulates cfg and appends a freshly cloned CrawlView each day
// through the unmasked Append path, the way view timelines were packed
// before the encoder learned to mask the live SAN.
func refViewTimeline(t *testing.T, cfg gplus.Config) []byte {
	t.Helper()
	sim := gplus.New(cfg)
	b := snapstore.NewBuilder()
	err := sim.StreamTimelines(1, 0, nil, nil, func(int, *san.SAN, *san.SAN) error {
		return b.Append(sim.CrawlView())
	})
	if err != nil {
		t.Fatalf("reference pack: %v", err)
	}
	return timelineBytes(t, b.Timeline())
}

func timelineBytes(t *testing.T, tl *snapstore.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newStreamWriter(t *testing.T, path string) *snapstore.StreamWriter {
	t.Helper()
	w, err := snapstore.NewStreamWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Abort)
	return w
}

// TestMaskedViewMatchesCloneViewBytes is the byte oracle for the
// masked crawl-view encoding: StreamTimelines packs the view straight
// from the live SAN under the declaration mask, and every sink must
// produce exactly the timeline the CloneView-fed reference encoder
// produces — fresh runs through Builder, StreamWriter, Live and
// Tee(StreamWriter, Live), and a run checkpointed at day k, restored
// with ReadSimulator and continued with StreamTimelines(k+1, ...).
func TestMaskedViewMatchesCloneViewBytes(t *testing.T) {
	for _, daily := range []int{30, 100} {
		for _, seed := range []uint64{1, 2, 3} {
			cfg := gplus.DefaultConfig()
			cfg.DailyBase = daily
			cfg.Seed = seed
			t.Run(fmt.Sprintf("daily%d/seed%d", daily, seed), func(t *testing.T) {
				testMaskedViewSinks(t, cfg, refViewTimeline(t, cfg))
			})
		}
	}
}

func testMaskedViewSinks(t *testing.T, cfg gplus.Config, want []byte) {
	dir := t.TempDir()
	pack := func(view snapstore.DaySink) {
		t.Helper()
		if err := gplus.New(cfg).StreamTimelines(1, 0, nil, view, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(sink string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: masked view timeline differs from the CloneView reference (%d vs %d bytes)", sink, len(got), len(want))
		}
	}

	b := snapstore.NewBuilder()
	pack(b)
	check("Builder", timelineBytes(t, b.Timeline()))

	swPath := filepath.Join(dir, "sw.tl")
	sw := newStreamWriter(t, swPath)
	pack(sw)
	if err := sw.Finalize(); err != nil {
		t.Fatal(err)
	}
	check("StreamWriter", readFile(t, swPath))

	live := snapstore.NewLive()
	pack(live)
	live.Finish()
	check("Live", timelineBytes(t, snapstore.LiveTimeline(live)))

	teePath := filepath.Join(dir, "tee.tl")
	teeW, teeLive := newStreamWriter(t, teePath), snapstore.NewLive()
	pack(snapstore.Tee(teeW, teeLive))
	if err := teeW.Finalize(); err != nil {
		t.Fatal(err)
	}
	check("Tee/StreamWriter", readFile(t, teePath))
	check("Tee/Live", timelineBytes(t, snapstore.LiveTimeline(teeLive)))

	// Resume at day k: the Builder carries its encoder across the
	// restore, the StreamWriter is reopened from its spill and seeded
	// from the restored SAN under the declaration mask.
	const k = 40
	first := gplus.New(cfg)
	rb := snapstore.NewBuilder()
	rsPath := filepath.Join(dir, "resumed.tl")
	rs := newStreamWriter(t, rsPath)
	if err := first.StreamTimelines(1, k, nil, snapstore.Tee(rb, rs), nil); err != nil {
		t.Fatal(err)
	}
	if err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	lens := rs.DayLens()
	rs.Close()
	var state bytes.Buffer
	if err := first.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	resumed, err := gplus.ReadSimulator(cfg, &state, gplus.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	rs2, err := snapstore.ResumeStreamWriter(rsPath, lens, resumed.G, resumed.DeclaredMask())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs2.Abort)
	if err := resumed.StreamTimelines(k+1, 0, nil, snapstore.Tee(rb, rs2), nil); err != nil {
		t.Fatal(err)
	}
	if err := rs2.Finalize(); err != nil {
		t.Fatal(err)
	}
	check("resumed Builder", timelineBytes(t, rb.Timeline()))
	check("resumed StreamWriter", readFile(t, rsPath))
}

// plainSink is a DaySink without AppendMasked.
type plainSink struct{ b *snapstore.Builder }

func (p plainSink) Append(g *san.SAN) error { return p.b.Append(g) }
func (p plainSink) PackedBytes() int        { return p.b.PackedBytes() }

// TestStreamTimelinesRejectsUnmaskedViewSink pins that a view sink
// which cannot mask is an error, not a silent full-SAN view — alone or
// inside a Tee — while it stays usable as the full sink.
func TestStreamTimelinesRejectsUnmaskedViewSink(t *testing.T) {
	cfg := gplus.DefaultConfig()
	cfg.DailyBase = 10
	cfg.Days = 3
	for _, view := range []snapstore.DaySink{
		plainSink{snapstore.NewBuilder()},
		snapstore.Tee(snapstore.NewBuilder(), plainSink{snapstore.NewBuilder()}),
	} {
		err := gplus.New(cfg).StreamTimelines(1, 0, nil, view, nil)
		if err == nil || !strings.Contains(err.Error(), "mask") {
			t.Errorf("view sink %T: got %v, want a masking error", view, err)
		}
	}
	if err := gplus.New(cfg).StreamTimelines(1, 0, plainSink{snapstore.NewBuilder()}, nil, nil); err != nil {
		t.Errorf("plain full sink: %v", err)
	}
}
