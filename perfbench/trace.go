package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark
// around a public function of the program.  Times are Unix
// nanoseconds, so spans recorded by child processes merge into one
// timeline.  Parent is the ID of the enclosing span, 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory.  A nil *Tracer records nothing, so
// untraced runs call the same code without paying for spans.
type Tracer struct {
	mu    sync.Mutex
	base  int64 // span IDs are base+1, base+2, ... so processes never collide
	next  int64
	spans []Span
}

// newTracer returns a tracer whose span IDs start above base.
func newTracer(base int64) *Tracer { return &Tracer{base: base} }

// Start opens a span under parent and returns a function that closes
// it.  The returned ID is the parent for nested spans.
func (t *Tracer) Start(name string, parent int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now().UnixNano()
	t.mu.Lock()
	t.next++
	id = t.base + t.next
	t.mu.Unlock()
	return id, func() { t.Add(Span{ID: id, Parent: parent, Name: name, Start: start, End: time.Now().UnixNano()}) }
}

// NewID reserves a span ID, for a span whose children end before it
// is added.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.base + t.next
}

// Add records an already-timed span; a zero ID gets a fresh one.
func (t *Tracer) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.base + t.next
	}
	t.spans = append(t.spans, s)
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// withSelfTimes fills each span's Self: its duration minus the part of
// its interval covered by its children (children of one parent may
// overlap, e.g. concurrent requests, so their union is subtracted).
func withSelfTimes(spans []Span) []Span {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.Self = s.dur() - covered(kids[s.ID], s.Start, s.End)
		out[i] = s
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// sumSelf returns the total self time, in seconds, of spans named
// name; sumDur the total duration.
func sumSelf(spans []Span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.Self
		}
	}
	return float64(ns) / 1e9
}

func sumDur(spans []Span, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// traceFile is what a run writes at exit: every span with its self
// time, plus self time totalled by span name.
type traceFile struct {
	TraceID     string             `json:"trace_id"`
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	SelfByName  map[string]float64 `json:"self_s_by_name"`
	Spans       []Span             `json:"spans"`
}

// writeTrace writes spans (self times filled in) under dir and prints
// the largest self times to w.
func writeTrace(dir, traceID, workload string, seed uint64, fp Fingerprint, spans []Span, w io.Writer) (string, error) {
	spans = withSelfTimes(spans)
	byName := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += float64(s.Self) / 1e9
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", workload, seed, traceID))
	data, err := json.Marshal(traceFile{traceID, workload, seed, fp, byName, spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Fprintf(w, "trace %s: %d spans written to %s; largest self times:\n", traceID, len(spans), path)
	for i, n := range names {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "  %-36s %10.4f s\n", n, byName[n])
	}
	return path, nil
}
