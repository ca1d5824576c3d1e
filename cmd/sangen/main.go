// Command sangen generates synthetic Social-Attribute Networks: single
// SANs in the san text format, or whole scenario-sweep workspaces of
// packed snapstore timelines.
//
// Single-network mode writes one generated SAN to stdout (or a file):
//
//	sangen -model san -n 20000 > san.txt
//	sangen -model gplus -scale 400 -observed -o crawl.txt
//
// Three generators are available: -model san (the paper's generative
// model, LAPA + RR-SAN, §5.3), -model zhel (the directed Zheleva et
// al. baseline, §6), and -model gplus (the three-phase Google+
// reference simulation, §2.2).
//
// Sweep mode runs named what-if scenarios (see internal/scenario) in
// parallel and packs each into full + crawl-view timelines under a
// workspace directory with a manifest, ready for `sanserve -workspace`:
//
//	sangen sweep -list
//	sangen sweep -out ws -scenarios baseline,pa-first-link,subscriber-heavy,social-only -scale 100
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/atomicio"
	"repro/internal/core"
	"repro/internal/gplus"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/scenario"
	"repro/internal/zhel"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sangen:", err)
			os.Exit(1)
		}
		return
	}
	if err := runGenerate(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sangen:", err)
		os.Exit(1)
	}
}

// runSweep drives the scenario sweep pipeline: resolve scenarios,
// simulate them on a worker pool, pack timelines into the workspace,
// write the manifest, and print the summary table.
func runSweep(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	out := fs.String("out", "", "workspace output directory (required)")
	list := fs.Bool("list", false, "list available scenarios and exit")
	names := fs.String("scenarios", "", "comma-separated scenario names (default: all)")
	scale := fs.Int("scale", 400, "gplus DailyBase arrival scale")
	seed := fs.Uint64("seed", 42, "base simulation seed (scenarios may override)")
	workers := fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "emit periodic sweep progress (days simulated, links, ETA) to stderr")
	cpuprof := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprof := fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	fs.Parse(args)

	stopProf, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProf()

	if *list {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, name := range scenario.Names() {
			s, err := scenario.Get(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\n", s.Name, s.Title)
		}
		return tw.Flush()
	}
	if *out == "" {
		return fmt.Errorf("sweep: -out DIR is required (or -list to see scenarios)")
	}
	var selected []string
	if *names != "" {
		for _, n := range strings.Split(*names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				selected = append(selected, n)
			}
		}
	}
	base := gplus.DefaultConfig()
	base.DailyBase = *scale
	base.Seed = *seed

	// -progress: a shared obs.Progress accumulates day/node/link counts
	// across all concurrently running scenario simulations, and a ticker
	// emits one stderr line per second with an ETA over the total day
	// budget of the sweep.
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress("sweep")
		stopTick := prog.Tick(time.Second, func(ps obs.ProgressSnapshot) {
			fmt.Fprintln(os.Stderr, "sangen:", ps)
		})
		defer stopTick()
	}

	m, err := scenario.Sweep(scenario.Options{
		Dir:       *out,
		Scenarios: selected,
		Base:      base,
		Workers:   *workers,
		Obs:       prog,
		Progress: func(r scenario.Run) {
			fmt.Fprintf(w, "packed %-22s %3d days  %7d nodes  %8d links  %7.1f KiB  (%d ms)\n",
				r.Scenario, r.Days, r.SocialNodes, r.SocialLinks,
				float64(r.FullBytes+r.ViewBytes)/1024, r.ElapsedMS)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d scenario runs to %s (serve with: sanserve -workspace %s)\n",
		len(m.Runs), *out, *out)
	return nil
}

// startProfiles wires -cpuprofile/-memprofile (mirroring `sanserve
// -pprof`, but file-based so crawl-scale batch runs need no scrape
// endpoint): CPU profiling starts immediately, and the returned stop
// function ends it and writes the heap profile.  Either path may be
// empty; stop is always safe to call once.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sangen: -memprofile:", err)
				return
			}
			runtime.GC() // materialize the live set before snapshotting
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sangen: -memprofile:", err)
			}
			f.Close()
		}
	}, nil
}

// runGenerate is the single-network mode: one generator, one SAN, the
// san text format.
func runGenerate(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sangen", flag.ExitOnError)
	var (
		model     = fs.String("model", "san", "generator: san, zhel, or gplus")
		n         = fs.Int("n", 10000, "node arrivals (san/zhel models)")
		scale     = fs.Int("scale", 400, "gplus DailyBase arrival scale")
		seed      = fs.Uint64("seed", 1, "random seed")
		observed  = fs.Bool("observed", false, "gplus: emit the crawl view (declared attributes only)")
		out       = fs.String("o", "", "output file (default stdout)")
		beta      = fs.Float64("beta", 200, "san: LAPA attribute weight β")
		focal     = fs.Float64("fc", 1, "san: focal-closure weight fc")
		days      = fs.Int("days", 0, "gplus: override the simulated horizon (0 = default)")
		streamOut = fs.String("stream-out", "", "gplus: stream a packed timeline to this file (bounded memory; no text output)")
		ckptEvery = fs.Int("checkpoint-every", 0, "with -stream-out: persist resumable state every N days (0 = never)")
		resume    = fs.String("resume", "", "continue an interrupted -stream-out run from its checkpoint directory")
		stopAfter = fs.Int("stop-after", 0, "with -stream-out: stop after day N, leaving a checkpoint to resume from")
		progress  = fs.Bool("progress", false, "emit periodic progress (days, links, packed bytes, RSS) to stderr")
		serveAddr = fs.String("serve", "", "with -stream-out: serve a live NDJSON tail of this run on ADDR (GET /v1/stream/live) while it generates")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	)
	fs.Parse(args)

	stopProf, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		return err
	}
	defer stopProf()

	if *resume != "" {
		return runResume(*resume, *stopAfter, *progress, *serveAddr)
	}
	if *streamOut == "" && (*ckptEvery > 0 || *stopAfter > 0 || *serveAddr != "") {
		return fmt.Errorf("-checkpoint-every, -stop-after and -serve require -stream-out")
	}

	var g *san.SAN
	switch *model {
	case "san":
		p := core.NewDefaultParams(*n)
		p.Seed = *seed
		p.Beta = *beta
		p.FocalWeight = *focal
		if err := p.Validate(); err != nil {
			return err
		}
		g = core.Generate(p)
	case "zhel":
		p := zhel.NewDefaultParams(*n)
		p.Seed = *seed
		g = zhel.Generate(p)
	case "gplus":
		cfg := gplus.DefaultConfig()
		cfg.DailyBase = *scale
		cfg.Seed = *seed
		if *days > 0 {
			cfg.Days = *days
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		if *streamOut != "" {
			return runStream(cfg, *streamOut, *observed, *ckptEvery, *stopAfter, *progress, *serveAddr)
		}
		sim := gplus.New(cfg)
		sim.Run(nil)
		if *observed {
			g = sim.CrawlView()
		} else {
			g = sim.G
		}
	default:
		return fmt.Errorf("unknown model %q", *model)
	}
	if *streamOut != "" {
		return fmt.Errorf("-stream-out requires -model gplus (the %s generator has no daily timeline)", *model)
	}

	if *out != "" {
		// Atomic temp+rename, with write AND close errors propagated: a
		// full disk used to surface only as a silently truncated file,
		// because the deferred Close error went nowhere.
		if err := atomicio.WriteFile(*out, func(dst io.Writer) error {
			_, err := g.WriteTo(dst)
			return err
		}); err != nil {
			return err
		}
	} else if _, err := g.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sangen: %d social nodes, %d social links, %d attribute nodes, %d attribute links\n",
		g.NumSocial(), g.NumSocialEdges(), g.NumAttrs(), g.NumAttrEdges())
	return nil
}
