package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"time"

	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/hll"
	"repro/internal/metrics"
	"repro/internal/san"
	"repro/internal/sanserve"
	"repro/internal/snapstore"
)

// mountName is the name every benchmark server mounts its timelines
// under.
const mountName = "bench"

// paperFigs is the paper workload's request order: every registry
// figure once, fig 4 (which needs the folded dataset) first.
func paperFigs() []string {
	figs := []string{"4"}
	for _, id := range experiments.IDs() {
		if id != "4" {
			figs = append(figs, id)
		}
	}
	return figs
}

// loopback is a sanserve.Server behind an HTTP listener on 127.0.0.1.
type loopback struct {
	srv    *sanserve.Server
	http   *http.Server
	ln     net.Listener
	done   chan struct{}
	client *http.Client
	base   string
}

func startLoopback(cfg experiments.Config, conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := sanserve.New(sanserve.Options{Cfg: cfg})
	l := &loopback{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	l.client = newClient(conns)
	go func() {
		defer close(l.done)
		l.http.Serve(ln)
	}()
	return l, nil
}

// newClient returns an HTTP client holding at most conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// stop shuts the listener down, waits for the serve goroutine and
// drains the server's analytics pipeline.
func (l *loopback) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.http.Shutdown(ctx)
	<-l.done
	l.client.CloseIdleConnections()
	l.srv.Close()
}

// get fetches path and returns the status and the whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkFigure checks one figure response: 200, and a body that decodes
// to a figure with series or notes.
func checkFigure(r *result, id string, status int, body []byte, err error) *sanserve.FigureResponse {
	if err != nil || status != http.StatusOK {
		r.check(false, "figure %s: status %d, %v", id, status, err)
		return nil
	}
	var fig sanserve.FigureResponse
	if err := json.Unmarshal(body, &fig); err != nil {
		r.check(false, "figure %s: %v", id, err)
		return nil
	}
	r.check(len(fig.Series) > 0 || len(fig.Notes) > 0, "figure %s: no series and no notes", id)
	return &fig
}

// paperJob mounts the timelines cold into a server, fetches the job's
// figures once over one loopback connection (all 23 reproduce the
// paper from a crawl) and then streams the fold once.
func paperJob(j job) (*result, error) {
	tr := (*Tracer)(nil)
	if j.Traced {
		tr = newTracer(j.SpanBase)
	}
	l, err := startLoopback(j.Exp, 1)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	r := newResult()

	t0 := time.Now()
	root, endRoot := tr.Start("paper", 0)
	_, end := tr.Start("sanserve.mount", root)
	err = l.srv.MountFiles(mountName, j.Full, j.View)
	end()
	if err != nil {
		return nil, err
	}
	figs := map[string]*sanserve.FigureResponse{}
	for i, id := range j.Figs {
		_, end := tr.Start("http.figure."+id, root)
		status, body, err := get(l.client, l.base+"/v1/figures/"+id)
		end()
		if i == 0 {
			r.Metrics["first_figure_s"] = time.Since(t0).Seconds()
		}
		figs[id] = checkFigure(r, id, status, body, err)
	}
	endRoot()
	r.Metrics["wall_s"] = time.Since(t0).Seconds()

	// The fold once more, as /v1/stream serves it with every metric:
	// the gap before each day's row is that day's fold step, and the
	// streamed clustering must equal fig 4's, point for point.
	if err := streamFold(l, r, figs["4"]); err != nil {
		return nil, err
	}

	// Traced: what the server adds around each figure function, measured
	// directly rather than as a difference of two noisy totals: a
	// re-fetch from the result cache (routing, cache, transfer) and the
	// JSON encoding of the response.
	for _, id := range j.Figs {
		if tr == nil || figs[id] == nil {
			break
		}
		_, end := tr.Start("sanserve.http_cached", 0)
		status, _, err := get(l.client, l.base+"/v1/figures/"+id)
		end()
		r.check(err == nil && status == http.StatusOK, "cached figure %s: status %d, %v", id, status, err)
		_, end = tr.Start("sanserve.encode", 0)
		_, err = json.Marshal(figs[id])
		end()
		r.check(err == nil, "encoding figure %s: %v", id, err)
	}

	if _, ok := figs["2"]; !ok {
		r.Spans = tr.Spans()
		return r, nil
	}
	// Figs 2 and 3 plot the crawl view's node and link counts; their
	// last day must match the server's own snapshot statistics.
	status, body, err := get(l.client, l.base+"/v1/snapshots/98/stats?source=view")
	var st sanserve.SnapshotStats
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &st)
	} else if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	r.check(err == nil, "snapshot 98 stats: %v", err)
	lastY := func(id string, series int) float64 {
		f := figs[id]
		if f == nil || len(f.Series) <= series || len(f.Series[series].Y) == 0 {
			return math.NaN()
		}
		y := f.Series[series].Y
		return y[len(y)-1]
	}
	want := [4]float64{float64(st.SocialNodes), float64(st.AttrNodes), float64(st.SocialLinks), float64(st.AttrLinks)}
	got := [4]float64{lastY("2", 0), lastY("2", 1), lastY("3", 0), lastY("3", 1)}
	r.check(got == want, "figs 2/3 last day %v, /v1/snapshots/98/stats %v", got, want)
	r.Spans = tr.Spans()
	return r, nil
}

// streamFold streams the fold through /v1/stream?metrics=all and
// records the time before each day's row, in ms, as a sample.  Every
// day must stream, and the streamed clustering must equal fig 4's,
// point for point.
func streamFold(l *loopback, r *result, fig4 *sanserve.FigureResponse) error {
	days := gplus.DefaultConfig().Days
	cc := map[float64]float64{}
	if fig4 != nil {
		for _, s := range fig4.Series {
			if s.Name == "clustering" {
				for i, x := range s.X {
					cc[x] = s.Y[i]
				}
			}
		}
	}
	last := time.Now()
	resp, err := l.client.Get(l.base + "/v1/stream/" + mountName + "?metrics=all")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rows, done, mismatches := 0, -1, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		var rec struct {
			sanserve.StreamRecord
			Done *bool `json:"done"`
			Rows int   `json:"rows"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		if rec.Done != nil {
			done = rec.Rows
			continue
		}
		if rec.Day == 0 {
			continue // heartbeat
		}
		r.Samples = append(r.Samples, float64(now.Sub(last))/1e6)
		last = now
		if y, ok := cc[float64(rec.Day)]; fig4 != nil && (!ok || rec.Metrics["cc"] != y) {
			mismatches++
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	r.check(resp.StatusCode == http.StatusOK && rows == days && done == rows,
		"stream: status %d, %d rows, done record %d, want %d", resp.StatusCode, rows, done, days)
	r.check(mismatches == 0, "stream: clustering differs from fig 4 on %d days", mismatches)
	return nil
}

// loadInputs loads the full and view timelines of a job.
func loadInputs(j job) (full, view *snapstore.Timeline, err error) {
	if full, err = snapstore.LoadFile(j.Full); err != nil {
		return nil, nil, err
	}
	if view, err = snapstore.LoadFile(j.View); err != nil {
		return nil, nil, err
	}
	return full, view, nil
}

// foldJob splits the paper workload's fold into layers by driving it
// as the dataset build does (cursor, DayFolder.Feed, DayFolder.Measure)
// and replaying the estimators Measure calls on the same graphs.
func foldJob(j job) (*result, error) {
	tr := newTracer(j.SpanBase)
	r := newResult()
	full, view, err := loadInputs(j)
	if err != nil {
		return nil, err
	}
	cfg := j.Exp

	root, endRoot := tr.Start("fold", 0)
	cur, err := snapstore.OpenCursorN([]*snapstore.Timeline{full, view})
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	folder := experiments.NewDayFolder(cfg)
	nc := metrics.NewNeighborCache()
	ccSamples := metrics.SampleSize(0.01, 100)
	mismatches := 0
	for {
		dayStart := time.Now().UnixNano()
		day, gs, ds, err := cur.Next(context.Background())
		if err == snapstore.ErrDone {
			break
		}
		if err != nil {
			return nil, err
		}
		dayID := tr.NewID()
		tr.Add(Span{Parent: dayID, Name: "snapstore.cursor_next", Start: dayStart, End: time.Now().UnixNano()})
		_, end := tr.Start("experiments.feed", dayID)
		folder.Feed(ds[0], ds[1])
		end()
		_, end = tr.Start("experiments.measure", dayID)
		m := folder.Measure(day+1, gs[0], gs[1])
		end()

		// Replay the estimators Measure ran, with the same rng stream
		// and a neighbor cache fed from the same deltas; a replay that
		// disagrees with Measure's values is a failed check.
		nc.AddNodes(ds[0].NewSocial)
		for _, e := range ds[0].SocialEdges {
			nc.Invalidate(e.U)
			nc.Invalidate(e.V)
		}
		got := replayEstimators(tr, dayID, cfg, day+1, gs[0], gs[1], nc, ccSamples)
		want := [6]float64{m.Assort, m.AttrAssort, m.CC, m.AttrCC, m.DiamSocial, m.DiamAttr}
		if !sameFloats(got, want) {
			mismatches++
		}
		tr.Add(Span{ID: dayID, Parent: root, Name: "fold.day", Start: dayStart, End: time.Now().UnixNano()})
	}
	endRoot()
	r.check(mismatches == 0, "estimator replay disagreed with DayFolder.Measure on %d days", mismatches)
	r.Spans = tr.Spans()
	return r, nil
}

// figuresJob times the dataset build and every figure function, called
// through experiments.RunOn in a fresh process, as a cold server runs
// them.
func figuresJob(j job) (*result, error) {
	tr := newTracer(j.SpanBase)
	r := newResult()
	full, view, err := loadInputs(j)
	if err != nil {
		return nil, err
	}
	ds := experiments.NewTimelineDataset(j.Exp, full, view)
	_, end := tr.Start("experiments.build", 0)
	err = ds.Build(context.Background())
	end()
	if err != nil {
		return nil, err
	}
	for _, id := range j.Figs {
		_, end := tr.Start("experiments.fig."+id, 0)
		fig, err := experiments.RunOn(id, ds)
		end()
		r.check(err == nil && (len(fig.Series) > 0 || len(fig.Notes) > 0), "RunOn(%s): %v", id, err)
	}
	r.Spans = tr.Spans()
	return r, nil
}

// replayEstimators repeats the sampled estimator calls of
// DayFolder.Measure for one day, in the same rng order, each in its
// own span.  It returns assortativity, attribute assortativity,
// clustering, attribute clustering and the two diameters (NaN on days
// without a diameter).
func replayEstimators(tr *Tracer, parent int64, cfg experiments.Config, day int, full, view *san.SAN, nc *metrics.NeighborCache, k int) [6]float64 {
	var v [6]float64
	rng := rand.New(rand.NewPCG(cfg.Seed^uint64(day)*0x9b05688c2b3e6c1f, uint64(day)))
	_, end := tr.Start("metrics.assort", parent)
	v[0] = metrics.SocialAssortativity(full)
	v[1] = metrics.AttrAssortativity(view)
	end()
	_, end = tr.Start("metrics.cc", parent)
	v[2] = nc.AverageSocialClustering(full, k, rng)
	end()
	_, end = tr.Start("metrics.attr_cc", parent)
	v[3] = metrics.AverageAttrClustering(view, k, rng)
	end()
	v[4], v[5] = math.NaN(), math.NaN()
	if cfg.DiamEvery > 0 && day%cfg.DiamEvery == 0 && day >= cfg.DiamEvery {
		_, end = tr.Start("hll.hyperanf", parent)
		v[4] = hll.HyperANF(full, hll.Options{Precision: cfg.HLLBits, Seed: cfg.Seed}).EffectiveDiameter(0.9)
		end()
		_, end = tr.Start("hll.attr_diameter", parent)
		v[5] = attrDiameter(view, rng)
		end()
	}
	return v
}

// attrDiameter samples 8 source attributes with at least two members,
// as the dataset build does.
func attrDiameter(view *san.SAN, rng *rand.Rand) float64 {
	var candidates []san.AttrID
	for a := 0; a < view.NumAttrs(); a++ {
		if view.SocialDegreeOfAttr(san.AttrID(a)) >= 2 {
			candidates = append(candidates, san.AttrID(a))
		}
	}
	if len(candidates) == 0 {
		return math.NaN()
	}
	return hll.EffectiveAttrDiameter(view, 8, 0.9, func(int) san.AttrID {
		return candidates[rng.IntN(len(candidates))]
	})
}

// sameFloats compares bitwise-equal values, treating NaN as equal to NaN.
func sameFloats(a, b [6]float64) bool {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// paperLayers turns the spans of the traced paper, fold and figures
// processes into the per-layer metrics.
func paperLayers(paper, fold, figs []Span) map[string]float64 {
	m := map[string]float64{
		"sanserve.mount_s":         sumDur(paper, "sanserve.mount"),
		"sanserve.http_overhead_s": sumDur(paper, "sanserve.http_cached") + sumDur(paper, "sanserve.encode"),
		"snapstore.cursor_next_s":  sumDur(fold, "snapstore.cursor_next"),
		"experiments.feed_s":       sumDur(fold, "experiments.feed"),
		"experiments.measure_s":    sumDur(fold, "experiments.measure"),
		"metrics.assort_s":         sumDur(fold, "metrics.assort"),
		"metrics.cc_s":             sumDur(fold, "metrics.cc"),
		"metrics.attr_cc_s":        sumDur(fold, "metrics.attr_cc"),
		"hll.hyperanf_s":           sumDur(fold, "hll.hyperanf"),
		"hll.attr_diameter_s":      sumDur(fold, "hll.attr_diameter"),
	}
	m["experiments.measure_other_s"] = m["experiments.measure_s"] - m["metrics.assort_s"] - m["metrics.cc_s"] -
		m["metrics.attr_cc_s"] - m["hll.hyperanf_s"] - m["hll.attr_diameter_s"]
	for _, id := range experiments.IDs() {
		m["experiments.fig."+id+"_s"] = sumDur(figs, "experiments.fig."+id)
	}
	return m
}
