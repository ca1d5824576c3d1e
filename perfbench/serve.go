package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sanserve"
	"repro/internal/snapstore"
)

// seriesFigs are the day-series figures: the serve workload requests
// them over eight-day windows.
var seriesFigs = []string{"2", "3", "4", "6", "7b", "8", "11", "12b"}

// windowDays is the length of every serve request's day window.
const windowDays = 8

// serverJob is the serve workload's server process: it mounts the
// timelines cold, fetches every day-series figure once (which builds
// the dataset), reports its address, and serves until its stdin
// closes.
func serverJob(j job, stdin io.Reader, stdout io.Writer) (*result, error) {
	l, err := startLoopback(j.Exp, 1)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	r := newResult()
	t0 := time.Now()
	if err := l.srv.MountFiles(mountName, j.Full, j.View); err != nil {
		return nil, err
	}
	for i, id := range seriesFigs {
		status, body, err := get(l.client, l.base+"/v1/figures/"+id)
		if i == 0 {
			r.Metrics["first_figure_s"] = time.Since(t0).Seconds()
		}
		checkFigure(r, id, status, body, err)
	}
	r.Metrics["warm_s"] = time.Since(t0).Seconds()
	r.Addr = l.ln.Addr().String()
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		return nil, err
	}
	io.Copy(io.Discard, stdin)
	return newResult(), nil
}

// request is one generated serve request.
type request struct {
	class  int // index into requestClasses
	path   string
	lo, hi int    // figure and stream windows; snapshot day in lo
	source string // snapshot source
}

// mix generates the serve workload's requests.  Every block of 20
// requests holds exactly 16 figure windows, 3 snapshot-stats requests
// and 1 stream summary, in seeded random order, so the share of each
// class does not vary between seeds.  Figure keys (8 figures × the
// eight-day windows, more than the result cache holds) are drawn from
// a Zipf distribution over a seeded ranking, so most requests hit the
// cache and a steady share miss.  Snapshot (day, source) pairs and
// stream windows follow golden-ratio sequences from a seeded start:
// any run of them is spread evenly over the timeline, so how much
// replay work a run contains does not depend on the seed.
type mix struct {
	rng      *rand.Rand
	days     int
	figKeys  []int // figure key k: figure k / windows, window start 1 + k % windows
	zipf     *rand.Zipf
	snapAt   float64
	streamAt float64
	block    []int
}

func newMix(seed uint64, days int) *mix {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	m := &mix{
		rng:      rng,
		days:     days,
		figKeys:  rng.Perm(len(seriesFigs) * (days - windowDays + 1)),
		snapAt:   rng.Float64(),
		streamAt: rng.Float64(),
	}
	m.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(m.figKeys)-1))
	return m
}

// golden advances a golden-ratio sequence and returns its next value
// scaled to [0, n).
func golden(at *float64, n int) int {
	*at = math.Mod(*at+0.6180339887498949, 1)
	return min(int(*at*float64(n)), n-1)
}

// next returns the next request.
func (m *mix) next() request {
	if len(m.block) == 0 {
		m.block = make([]int, 0, 20)
		for c, n := range [3]int{16, 3, 1} {
			for i := 0; i < n; i++ {
				m.block = append(m.block, c)
			}
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	class := m.block[0]
	m.block = m.block[1:]
	windows := m.days - windowDays + 1
	switch class {
	case 0:
		k := m.figKeys[m.zipf.Uint64()]
		fig, lo := seriesFigs[k/windows], 1+k%windows
		hi := lo + windowDays - 1
		return request{class: 0, lo: lo, hi: hi, path: fmt.Sprintf("/v1/figures/%s?days=%d-%d", fig, lo, hi)}
	case 1:
		p := golden(&m.snapAt, 2*m.days)
		day, src := 1+p/2, [2]string{"full", "view"}[p%2]
		return request{class: 1, lo: day, source: src, path: fmt.Sprintf("/v1/snapshots/%d/stats?source=%s", day, src)}
	default:
		lo := 1 + golden(&m.streamAt, windows)
		hi := lo + windowDays - 1
		return request{class: 2, lo: lo, hi: hi, path: fmt.Sprintf("/v1/stream/%s?from=%d&to=%d", mountName, lo, hi)}
	}
}

// refTable holds the expected /v1/snapshots/{d}/stats bodies, built in
// set-up by walking both timelines: ref[source][day-1].
type refTable map[string][]sanserve.SnapshotStats

func buildRefTable(fullPath, viewPath string) (refTable, error) {
	ref := refTable{}
	for _, src := range []struct{ name, path string }{{"full", fullPath}, {"view", viewPath}} {
		tl, err := snapstore.LoadFile(src.path)
		if err != nil {
			return nil, err
		}
		cur := tl.Cursor()
		for {
			day, g, _, err := cur.Next(context.Background())
			if err == snapstore.ErrDone {
				break
			}
			if err != nil {
				cur.Close()
				return nil, err
			}
			st := g.Stats()
			ref[src.name] = append(ref[src.name], sanserve.SnapshotStats{
				Timeline: mountName, Day: day + 1, Source: src.name,
				SocialNodes: st.SocialNodes, SocialLinks: st.SocialLinks,
				AttrNodes: st.AttrNodes, AttrLinks: st.AttrLinks,
				Reciprocity: g.Reciprocity(), SocialDensity: g.SocialDensity(), AttrDensity: g.AttrDensity(),
			})
		}
		cur.Close()
	}
	return ref, nil
}

// checkResponse validates one serve response against the request and
// the reference table; it returns "" when the response is correct.
func checkResponse(req request, status int, body []byte, ref refTable) string {
	if status != http.StatusOK {
		return fmt.Sprintf("%s: status %d", req.path, status)
	}
	switch req.class {
	case 0:
		var fig sanserve.FigureResponse
		if err := json.Unmarshal(body, &fig); err != nil {
			return fmt.Sprintf("%s: %v", req.path, err)
		}
		if fig.FromDay != req.lo || fig.ToDay != req.hi || len(fig.Series) == 0 {
			return fmt.Sprintf("%s: window %d-%d with %d series", req.path, fig.FromDay, fig.ToDay, len(fig.Series))
		}
		for _, s := range fig.Series {
			for _, x := range s.X {
				if x < float64(req.lo) || x > float64(req.hi) {
					return fmt.Sprintf("%s: series %s has day %v", req.path, s.Name, x)
				}
			}
		}
	case 1:
		var st sanserve.SnapshotStats
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Sprintf("%s: %v", req.path, err)
		}
		if want := ref[req.source][req.lo-1]; st != want {
			return fmt.Sprintf("%s: got %+v, want %+v", req.path, st, want)
		}
	case 2:
		rows := 0
		done := -1
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			var rec struct {
				sanserve.StreamRecord
				Done      *bool `json:"done"`
				Rows      int   `json:"rows"`
				Heartbeat bool  `json:"heartbeat"`
			}
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
				return fmt.Sprintf("%s: %v", req.path, err)
			}
			if rec.Heartbeat {
				continue
			}
			if rec.Done != nil {
				done = rec.Rows
				continue
			}
			want := ref["view"][req.lo+rows-1]
			if rec.Day != req.lo+rows || rec.SocialNodes != want.SocialNodes || rec.SocialLinks != want.SocialLinks ||
				rec.AttrNodes != want.AttrNodes || rec.AttrLinks != want.AttrLinks {
				return fmt.Sprintf("%s: row %d is %+v", req.path, rows, rec.StreamRecord)
			}
			rows++
		}
		if n := req.hi - req.lo + 1; rows != n || done != n {
			return fmt.Sprintf("%s: %d rows, done record says %d, want %d", req.path, rows, done, n)
		}
	}
	return ""
}

// sample is one completed request.
type sample struct {
	class           int
	due, sent, done time.Time
	late            time.Duration // open loop: how late the generator dispatched it
	failure         string
}

// loadGen sends requests to a server over at most conns keep-alive
// connections.
type loadGen struct {
	client *http.Client
	base   string
	ref    refTable
	conns  int
	tr     *Tracer
}

func (g *loadGen) do(req request, due time.Time, parent int64) sample {
	s := sample{class: req.class, due: due, sent: time.Now()}
	status, body, err := get(g.client, g.base+req.path)
	s.done = time.Now()
	if err != nil {
		s.failure = fmt.Sprintf("%s: %v", req.path, err)
	} else {
		s.failure = checkResponse(req, status, body, g.ref)
	}
	if g.tr != nil {
		g.tr.Add(Span{Parent: parent, Name: "http." + requestClasses[req.class], Start: s.sent.UnixNano(), End: s.done.UnixNano()})
	}
	return s
}

// openLoop sends reqs at a fixed rate, whatever the server's progress:
// request i is due at start + i/rate and waits for a free connection
// if none is idle.  Latency is timed from the due time, so it includes
// that wait; a sample's late is how far behind schedule the generator
// itself dispatched the request.
func (g *loadGen) openLoop(reqs []request, rate float64, parent int64) []sample {
	type item struct {
		req  request
		due  time.Time
		late time.Duration
	}
	queue := make(chan item, len(reqs)) // sized to the number of sends
	out := make([]sample, 0, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				s := g.do(it.req, it.due, parent)
				s.late = it.late
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	for i, req := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		waitUntil(due)
		queue <- item{req, due, time.Since(due)}
	}
	close(queue)
	wg.Wait()
	return out
}

// waitUntil returns at t.  Timers on a virtual machine can fire
// milliseconds late, which would count as server latency, so the last
// 2 ms are spent yielding in a loop instead of sleeping.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop sends reqs back to back from conns clients, each sending
// its next request when the previous one completes.  It returns the
// samples and the time taken.
func (g *loadGen) closedLoop(reqs []request, parent int64) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = g.do(reqs[i], time.Now(), parent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// batches runs the script as consecutive closed-loop batches of size
// requests and returns every sample plus each batch's time and rate of
// successful requests.  The medians over batches discount a batch hit
// by a stall of the machine.
func (g *loadGen) batches(script []request, size int, parent int64) (all []sample, walls, rates []float64) {
	for lo := 0; lo+size <= len(script); lo += size {
		ss, d := g.closedLoop(script[lo:lo+size], parent)
		ok := 0
		for _, s := range ss {
			if s.failure == "" {
				ok++
			}
		}
		all = append(all, ss...)
		walls = append(walls, d.Seconds())
		rates = append(rates, float64(ok)/d.Seconds())
	}
	return all, walls, rates
}

// scrape reads the named counters from the server's /metrics page,
// summing series that differ only in labels.
func scrape(c *http.Client, base string, names ...string) (map[string]float64, error) {
	status, body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(key, "{")
		if !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		out[name] += v
	}
	return out, nil
}

var scrapedCounters = []string{
	"sanserve_result_cache_hits_total", "sanserve_result_cache_misses_total",
	"sanserve_store_hits_total", "sanserve_store_misses_total",
	"sanserve_stream_rows_total",
}

// replaySnapshots replays the snapshot-stats requests of a run, in
// the order they were sent, against fresh 8-day stores (the server's
// default), and returns the time taken.
func replaySnapshots(reqs []request, fullPath, viewPath string) (time.Duration, error) {
	stores := map[string]*snapstore.Store{}
	for src, path := range map[string]string{"full": fullPath, "view": viewPath} {
		tl, err := snapstore.LoadFile(path)
		if err != nil {
			return 0, err
		}
		stores[src] = snapstore.NewStore(tl, 8)
	}
	start := time.Now()
	for _, req := range reqs {
		if req.class != 1 {
			continue
		}
		if _, err := stores[req.source].Snapshot(req.lo - 1); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// latencies returns the latencies in ms of samples of the given class
// (-1 for all), timed from the due time.
func latencies(ss []sample, class int) []float64 {
	var out []float64
	for _, s := range ss {
		if class < 0 || s.class == class {
			out = append(out, float64(s.done.Sub(s.due))/1e6)
		}
	}
	return out
}
