package main

import (
	"repro/internal/experiments"
)

// metricSpec names one reported metric and its unit.  The lists below
// must match BENCHMARK.json (the tests check it).
type metricSpec struct{ Name, Unit string }

// endToEnd metrics are reported with tracing off, on every workload;
// README.md gives each one's meaning per workload.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"first_figure_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"capacity_rps", "req/s"},
	{"setup_s", "s"},
}

// perLayer returns the traced run's metrics.  Every workload reports
// all of them; a layer that does no work in a workload reads 0.
func perLayer() []metricSpec {
	m := []metricSpec{
		// grow
		{"gplus.sim_s", "s"},
		{"san.crawl_view_s", "s"},
		{"snapstore.encode_full_s", "s"},
		{"snapstore.encode_view_s", "s"},
		{"snapstore.flush_s", "s"},
		{"snapstore.finalize_s", "s"},
		{"gplus.checkpoint_s", "s"},
		{"gplus.users", "count"},
		{"gplus.social_links", "count"},
		{"gplus.attr_links", "count"},
		{"snapstore.full_bytes", "bytes"},
		{"snapstore.view_bytes", "bytes"},
		{"gplus.checkpoint_bytes", "bytes"},
		// paper: fold
		{"sanserve.mount_s", "s"},
		{"snapstore.cursor_next_s", "s"},
		{"experiments.feed_s", "s"},
		{"experiments.measure_s", "s"},
		{"metrics.assort_s", "s"},
		{"metrics.cc_s", "s"},
		{"metrics.attr_cc_s", "s"},
		{"hll.hyperanf_s", "s"},
		{"hll.attr_diameter_s", "s"},
		{"experiments.measure_other_s", "s"},
	}
	// paper: figures
	for _, id := range experiments.IDs() {
		m = append(m, metricSpec{"experiments.fig." + id + "_s", "s"})
	}
	m = append(m,
		metricSpec{"sanserve.http_overhead_s", "s"},
		// serve
		metricSpec{"sanserve.result_cache_hit_ratio", "ratio"},
		metricSpec{"snapstore.store_hit_ratio", "ratio"},
		metricSpec{"snapstore.store_snapshot_s", "s"},
		metricSpec{"sanserve.stream_rows", "count"},
		metricSpec{"loadgen.late_p99_ms", "ms"},
	)
	for _, class := range requestClasses {
		m = append(m,
			metricSpec{"sanserve." + class + "_p50_ms", "ms"},
			metricSpec{"sanserve." + class + "_p99_ms", "ms"},
			metricSpec{"sanserve." + class + "_requests", "count"},
		)
	}
	return append(m, metricSpec{"trace.overhead_pct", "%"})
}

// requestClasses are the serve workload's request kinds.
var requestClasses = []string{"figure", "snapshot", "stream"}

// scale sizes the workloads.  fullScale is what BENCHMARK.json runs;
// the benchmark's own tests use a tiny one.
type scale struct {
	GrowDailyBase  int // grow workload
	InputDailyBase int // timelines mounted by paper and serve
	WarmDailyBase  int // the grow set-up's warm-up run
	SetupRounds    int
	// ExtraCrawls are crawls from derived seeds that the paper
	// workload also mounts cold, for its cold-mount and per-day fold
	// latencies, which depend on the crawl.
	ExtraCrawls int
	Exp         experiments.Config

	// OpenRate is the serve open-loop rate in requests/s: about a
	// quarter of the closed-loop capacity measured when the benchmark
	// was defined (README.md says why not half), frozen so that later
	// changes are measured at the same offered load.
	OpenRate float64
	// ScriptRate sizes the closed-loop script: ScriptRate × seconds/3
	// requests, run as batches of BatchSize (a multiple of the mix's
	// 20-request block).
	ScriptRate float64
	BatchSize  int
}

var fullScale = scale{
	GrowDailyBase:  1000,
	InputDailyBase: 400,
	WarmDailyBase:  100,
	SetupRounds:    3,
	ExtraCrawls:    3,
	Exp:            experiments.QuickConfig(),
	OpenRate:       75,
	ScriptRate:     250,
	BatchSize:      240,
}
