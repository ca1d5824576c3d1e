// Command perfbench is the repository's benchmark.  It runs one of
// three workloads — grow (simulate and pack a 98-day network), paper
// (mount a crawl cold and fetch every figure) and serve (a request mix
// against a warm server) — checks the outputs, and prints every
// metric by name and unit, ending with one JSON line.  See README.md.
//
//	perfbench --workload grow|paper|serve --seed N --seconds S --trace 0|1
//	perfbench compare BASE.jsonl NEW.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		childMain(spec)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "grow, paper or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.Parse(os.Args[1:])
	o.traced = *trace == 1
	o.scale = fullScale
	o.out = os.Getenv("PERFBENCH_OUT")
	if o.out == "" {
		o.out = ".bench_build"
	}
	if err := runMain(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options is one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    scale
	out      string // work files, traces and the results ledger go here
}

// outcome is what a workload measured.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	spans     []Span
}

func (oc *outcome) add(r *result) {
	oc.attempted += r.Checks
	oc.failed += len(r.Failures)
	oc.failures = append(oc.failures, r.Failures...)
}

func (oc *outcome) check(ok bool, format string, args ...any) {
	oc.attempted++
	if !ok {
		oc.failed++
		oc.failures = append(oc.failures, fmt.Sprintf(format, args...))
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// ledgerEntry is one run appended to the results ledger, which
// `perfbench compare` reads.
type ledgerEntry struct {
	Time        string      `json:"time"`
	TraceID     string      `json:"trace_id"`
	Fingerprint Fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	report
}

func runMain(o options, stdout, stderr io.Writer) error {
	run, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (grow, paper or serve)", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	traceID := fmt.Sprintf("%016x", rand.Uint64())
	fp := fingerprint()
	var tr *Tracer
	if o.traced {
		tr = newTracer(0)
	}
	oc, err := run(o, work, tr)
	if err != nil {
		return err
	}
	oc.metrics["fail_ratio"] = float64(oc.failed) / float64(max(oc.attempted, 1))

	specs := endToEnd
	if o.traced {
		specs = perLayer()
	}
	rep := report{Correct: oc.failed == 0 && oc.attempted > 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		rep.Metrics[s.Name] = metricValue{oc.metrics[s.Name], s.Unit}
	}

	if o.traced {
		if _, err := writeTrace(filepath.Join(o.out, "traces"), traceID, o.workload, o.seed, fp, append(oc.spans, tr.Spans()...), stderr); err != nil {
			return err
		}
	}
	entry := ledgerEntry{time.Now().UTC().Format(time.RFC3339), traceID, fp, o.workload, o.seed, o.seconds, o.traced, rep}
	if err := appendLedger(filepath.Join(o.out, "results.jsonl"), entry); err != nil {
		return err
	}

	for _, f := range oc.failures {
		fmt.Fprintln(stderr, "check failed:", f)
	}
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(stdout, "workload %s seed %d trace %s\n", o.workload, o.seed, traceID)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "  %-36s %14.6g %s (%d of %d checks failed)\n", "fail_ratio", oc.metrics["fail_ratio"], "ratio", oc.failed, oc.attempted)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func appendLedger(path string, e ledgerEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(o options, work string, tr *Tracer) (*outcome, error){
	"grow":  growWorkload,
	"paper": paperWorkload,
	"serve": serveWorkload,
}

// repeat calls rep(i) for i = 0, 1, ... until starting another
// repetition would overrun the budget; it always runs at least once.
func repeat(budget float64, rep func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i > 0 && (time.Since(start)+last).Seconds() > budget {
			return nil
		}
		t := time.Now()
		if err := rep(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
}

// medians reduces per-repetition metric maps to their medians.
func medians(reps []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range reps {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// reparent makes a child's root spans children of parent, so a run's
// trace is one tree.
func reparent(spans []Span, parent int64) []Span {
	for i := range spans {
		if spans[i].Parent == 0 {
			spans[i].Parent = parent
		}
	}
	return spans
}

// spanBase gives the n-th child process of a run its own span ID range.
func spanBase(n int) int64 { return int64(n+1) << 32 }

// overheadPct is the traced repetitions' median wall time against the
// untraced ones', in percent.
func overheadPct(traced, untraced []float64) float64 {
	return (median(traced)/median(untraced) - 1) * 100
}

// growWorkload: set-up is a small warm-up grow, repeated; each
// repetition then grows, packs and checkpoints a DailyBase-1000
// network in a fresh process, with a per-repetition input seed.
func growWorkload(o options, work string, tr *Tracer) (*outcome, error) {
	sc := o.scale
	oc := &outcome{metrics: map[string]float64{}}
	_, endSetup := tr.Start("setup", 0)
	var setups []float64
	for k := 0; k < sc.SetupRounds; k++ {
		t := time.Now()
		r, err := runChild(job{Kind: "grow", Dir: filepath.Join(work, fmt.Sprintf("warm-%d", k)), DailyBase: sc.WarmDailyBase, Seed: o.seed})
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		oc.add(r)
	}
	endSetup()

	var reps, layers []map[string]float64
	var days []float64
	var walls, tracedWalls []float64
	err := repeat(o.seconds, func(i int) error {
		seed := o.seed*1000 + uint64(i)
		dir := filepath.Join(work, fmt.Sprintf("rep-%d", i))
		defer os.RemoveAll(dir)
		r, err := runChild(job{Kind: "grow", Dir: dir, DailyBase: sc.GrowDailyBase, Seed: seed})
		if err != nil {
			return err
		}
		oc.add(r)
		m := map[string]float64{
			"wall_s":         r.Metrics["wall_s"],
			"first_figure_s": r.Metrics["first_figure_s"],
			"peak_rss_mb":    r.PeakRSSMiB,
			"capacity_rps":   float64(len(r.Samples)) / r.Metrics["wall_s"],
		}
		reps = append(reps, m)
		walls = append(walls, r.Metrics["wall_s"])
		days = append(days, r.Samples...)
		if tr == nil {
			return nil
		}
		repID, endRep := tr.Start("rep.traced", 0)
		rt, err := runChild(job{Kind: "grow", Dir: dir + "-traced", DailyBase: sc.GrowDailyBase, Seed: seed, Traced: true, SpanBase: spanBase(i)})
		endRep()
		os.RemoveAll(dir + "-traced")
		if err != nil {
			return err
		}
		oc.add(rt)
		for _, f := range []string{"full", "view"} {
			oc.check(rt.Hashes[f] == r.Hashes[f] && r.Hashes[f] != "", "seed %d: traced %s timeline differs from the untraced one", seed, f)
		}
		oc.spans = append(oc.spans, reparent(rt.Spans, repID)...)
		l := growLayers(rt.Spans)
		for _, k := range []string{"gplus.users", "gplus.social_links", "gplus.attr_links", "snapstore.full_bytes", "snapstore.view_bytes", "gplus.checkpoint_bytes"} {
			l[k] = rt.Metrics[k]
		}
		layers = append(layers, l)
		tracedWalls = append(tracedWalls, rt.Metrics["wall_s"])
		return nil
	})
	if err != nil {
		return nil, err
	}
	oc.metrics = medians(reps)
	oc.metrics["p50_ms"] = quantile(days, 0.50)
	oc.metrics["p99_ms"] = quantile(days, 0.99)
	oc.metrics["setup_s"] = median(setups)
	if tr != nil {
		for k, v := range medians(layers) {
			oc.metrics[k] = v
		}
		oc.metrics["trace.overhead_pct"] = overheadPct(tracedWalls, walls)
	}
	return oc, nil
}

// makeInputs is the paper and serve set-up: it generates the seed's
// DailyBase-400 full and view timelines with the grow path, several
// times, and checks that every round produced the same bytes; then
// extra crawls from derived seeds.  It returns the seed's files, the
// extra crawls and the median round time.
func makeInputs(o options, work string, oc *outcome, extra int) (full, view string, crawls [][2]string, setup float64, err error) {
	var times []float64
	var first map[string]string
	for k := 0; k < o.scale.SetupRounds+extra; k++ {
		seed := o.seed
		if k >= o.scale.SetupRounds {
			seed = o.seed*1000 + uint64(k)
		}
		dir := filepath.Join(work, fmt.Sprintf("input-%d", k))
		t := time.Now()
		r, err := growJob(job{Kind: "grow", Dir: dir, DailyBase: o.scale.InputDailyBase, Seed: seed})
		if err != nil {
			return "", "", nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		oc.add(r)
		switch {
		case k == 0:
			first = r.Hashes
		case k < o.scale.SetupRounds:
			oc.check(r.Hashes["full"] == first["full"] && r.Hashes["view"] == first["view"], "set-up round %d produced different timelines", k)
			os.RemoveAll(dir)
		default:
			crawls = append(crawls, [2]string{filepath.Join(dir, "full.tl"), filepath.Join(dir, "view.tl")})
		}
	}
	dir := filepath.Join(work, "input-0")
	return filepath.Join(dir, "full.tl"), filepath.Join(dir, "view.tl"), crawls, median(times), nil
}

// paperWorkload: each repetition mounts the set-up timelines cold in a
// fresh server process and fetches all 23 figures over one loopback
// connection.  Traced, two more processes split the fold and the
// figure functions into layers.
func paperWorkload(o options, work string, tr *Tracer) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	_, endSetup := tr.Start("setup", 0)
	full, view, crawls, setup, err := makeInputs(o, work, oc, o.scale.ExtraCrawls)
	endSetup()
	if err != nil {
		return nil, err
	}
	figs := paperFigs()
	base := job{Full: full, View: view, Exp: o.scale.Exp, Figs: figs}
	var reps, layers []map[string]float64
	var lat, walls, tracedWalls []float64
	err = repeat(o.seconds, func(i int) error {
		j := base
		j.Kind = "paper"
		r, err := runChild(j)
		if err != nil {
			return err
		}
		oc.add(r)
		// A cold mount's fold costs what the crawl makes it cost
		// (HyperANF runs until the crawl's diameter is reached), so
		// first_figure_s and the latency percentiles also take in the
		// extra crawls, each mounted cold in its own process and asked
		// for fig 4 only.
		firsts := []float64{r.Metrics["first_figure_s"]}
		lat = append(lat, r.Samples...)
		for _, c := range crawls {
			rc, err := runChild(job{Kind: "paper", Full: c[0], View: c[1], Exp: o.scale.Exp, Figs: []string{"4"}})
			if err != nil {
				return err
			}
			oc.add(rc)
			firsts = append(firsts, rc.Metrics["first_figure_s"])
			lat = append(lat, rc.Samples...)
		}
		reps = append(reps, map[string]float64{
			"wall_s":         r.Metrics["wall_s"],
			"first_figure_s": median(firsts),
			"peak_rss_mb":    r.PeakRSSMiB,
			"capacity_rps":   float64(len(figs)) / r.Metrics["wall_s"],
		})
		walls = append(walls, r.Metrics["wall_s"])
		if tr == nil {
			return nil
		}
		repID, endRep := tr.Start("rep.traced", 0)
		defer endRep()
		var rs [3]*result
		for k, kind := range []string{"paper", "fold", "figures"} {
			j.Kind, j.Traced, j.SpanBase = kind, true, spanBase(3*i+k)
			if rs[k], err = runChild(j); err != nil {
				return err
			}
			oc.add(rs[k])
			oc.spans = append(oc.spans, reparent(rs[k].Spans, repID)...)
		}
		rt := rs[0]
		layers = append(layers, paperLayers(rt.Spans, rs[1].Spans, rs[2].Spans))
		tracedWalls = append(tracedWalls, rt.Metrics["wall_s"])
		return nil
	})
	if err != nil {
		return nil, err
	}
	oc.metrics = medians(reps)
	oc.metrics["p50_ms"] = quantile(lat, 0.50)
	oc.metrics["p99_ms"] = quantile(lat, 0.99)
	oc.metrics["setup_s"] = setup
	if tr != nil {
		for k, v := range medians(layers) {
			oc.metrics[k] = v
		}
		oc.metrics["trace.overhead_pct"] = overheadPct(tracedWalls, walls)
	}
	return oc, nil
}

// serveWorkload: set-up generates the timelines, builds the reference
// table and starts a server process that mounts and warms them.  The
// load generator then runs an open-loop phase at the frozen rate for
// two thirds of the budget, and a closed-loop script sized to the rest.
func serveWorkload(o options, work string, tr *Tracer) (*outcome, error) {
	sc := o.scale
	oc := &outcome{metrics: map[string]float64{}}
	_, endSetup := tr.Start("setup", 0)
	full, view, _, setup, err := makeInputs(o, work, oc, 0)
	if err != nil {
		return nil, err
	}
	ref, err := buildRefTable(full, view)
	if err != nil {
		return nil, err
	}
	var addr string
	// The server is started cold several times; every start but the
	// last is stopped once warm, and the cold-start figures are the
	// medians.
	var p *proc
	var firsts, warms []float64
	for k := 0; k < sc.SetupRounds; k++ {
		if p != nil {
			if _, err := p.finish(); err != nil {
				return nil, err
			}
		}
		if p, err = startChild(job{Kind: "server", Full: full, View: view, Exp: sc.Exp}); err != nil {
			return nil, err
		}
		ready, err := p.readResult()
		if err != nil {
			p.kill()
			return nil, fmt.Errorf("server child: %w", err)
		}
		oc.add(ready)
		firsts = append(firsts, ready.Metrics["first_figure_s"])
		warms = append(warms, ready.Metrics["warm_s"])
		addr = ready.Addr
	}
	endSetup()
	setup += median(warms)

	m := newMix(o.seed, len(ref["full"]))
	gen := func(n int) []request {
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i] = m.next()
		}
		return reqs
	}
	// Two thirds of the budget go to the open loop, whose p99 needs
	// the samples; the closed loop's median over batches needs fewer.
	openReqs := gen(int(sc.OpenRate * o.seconds * 2 / 3))
	batches := max(1, int(sc.ScriptRate*o.seconds/3)/sc.BatchSize)
	script := gen(batches * sc.BatchSize)
	lg := &loadGen{client: newClient(2), base: "http://" + addr, ref: ref, conns: 2, tr: tr}
	defer lg.client.CloseIdleConnections()

	before, err := scrape(lg.client, lg.base, scrapedCounters...)
	if err != nil {
		p.kill()
		return nil, err
	}
	openID, endOpen := tr.Start("open_loop", 0)
	open := lg.openLoop(openReqs, sc.OpenRate, openID)
	endOpen()
	// The closed-loop script runs untraced; traced, it runs a second
	// time with spans, for the tracing overhead.
	lg.tr = nil
	closed, walls, rates := lg.batches(script, sc.BatchSize, 0)
	var tracedClosed []sample
	var tracedWalls []float64
	if tr != nil {
		lg.tr = tr
		closedID, endClosed := tr.Start("closed_loop", 0)
		tracedClosed, tracedWalls, _ = lg.batches(script, sc.BatchSize, closedID)
		endClosed()
	}
	after, err := scrape(lg.client, lg.base, scrapedCounters...)
	if err != nil {
		p.kill()
		return nil, err
	}
	rss, err := p.finish()
	if err != nil {
		return nil, err
	}

	for _, s := range append(append(append([]sample(nil), open...), closed...), tracedClosed...) {
		oc.check(s.failure == "", "%s", s.failure)
	}
	lat := latencies(open, -1)
	oc.metrics = map[string]float64{
		"wall_s":         median(walls),
		"first_figure_s": median(firsts),
		"peak_rss_mb":    rss,
		"p50_ms":         quantile(lat, 0.50),
		"p99_ms":         quantile(lat, 0.99),
		"capacity_rps":   median(rates),
		"setup_s":        setup,
	}
	if tr == nil {
		return oc, nil
	}

	d := func(name string) float64 { return after[name] - before[name] }
	ratio := func(hits, misses string) float64 { return d(hits) / max(d(hits)+d(misses), 1) }
	oc.metrics["sanserve.result_cache_hit_ratio"] = ratio("sanserve_result_cache_hits_total", "sanserve_result_cache_misses_total")
	oc.metrics["snapstore.store_hit_ratio"] = ratio("sanserve_store_hits_total", "sanserve_store_misses_total")
	oc.metrics["sanserve.stream_rows"] = d("sanserve_stream_rows_total")
	for c, class := range requestClasses {
		l := latencies(open, c)
		oc.metrics["sanserve."+class+"_p50_ms"] = quantile(l, 0.50)
		oc.metrics["sanserve."+class+"_p99_ms"] = quantile(l, 0.99)
		oc.metrics["sanserve."+class+"_requests"] = float64(len(l))
	}
	var late []float64
	for _, s := range open {
		late = append(late, float64(s.late)/1e6)
	}
	oc.metrics["loadgen.late_p99_ms"] = quantile(late, 0.99)
	sent := append(append(append([]request(nil), openReqs...), script...), script...)
	replay, err := replaySnapshots(sent, full, view)
	if err != nil {
		return nil, err
	}
	oc.metrics["snapstore.store_snapshot_s"] = replay.Seconds()
	oc.metrics["trace.overhead_pct"] = overheadPct(tracedWalls, walls)
	return oc, nil
}
