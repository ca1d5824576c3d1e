package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare step reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two results ledgers (the results.jsonl files
// runs append to) workload by workload: for each end-to-end metric of
// BENCHMARK.json it prints both medians, the change and the verdict
// against the metric's bound.  It refuses, with exit code 3, to
// compare results taken on machines with different fingerprints.
// Exit code 1 means a metric regressed beyond its bound.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare: reading BENCHMARK.json:", err)
		return 2
	}
	base, err := readLedger(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cur, err := readLedger(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	fps := map[Fingerprint]bool{}
	for _, e := range append(append([]ledgerEntry(nil), base...), cur...) {
		fps[e.Fingerprint] = true
	}
	if len(fps) != 1 {
		fmt.Fprintf(stderr, "compare: refusing to compare results from %d different machine fingerprints:\n", len(fps))
		for fp := range fps {
			fmt.Fprintf(stderr, "  %+v\n", fp)
		}
		return 3
	}

	group := func(es []ledgerEntry) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, e := range es {
			if e.Traced {
				continue
			}
			if out[e.Workload] == nil {
				out[e.Workload] = map[string][]float64{}
			}
			for n, v := range e.Metrics {
				out[e.Workload][n] = append(out[e.Workload][n], v.Value)
			}
		}
		return out
	}
	b, c := group(base), group(cur)
	var wls []string
	for w := range b {
		if c[w] != nil {
			wls = append(wls, w)
		}
	}
	sort.Strings(wls)
	regressed := false
	for _, w := range wls {
		fmt.Fprintf(stdout, "%s (%d base runs, %d new runs)\n", w, len(b[w]["setup_s"]), len(c[w]["setup_s"]))
		for _, m := range spec.EndToEnd {
			bv, cv := b[w][m.Name], c[w][m.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			bm, cm := median(bv), median(cv)
			change := (cm - bm) / bm
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			spread := (quantile(bv, 0.75) - quantile(bv, 0.25)) / bm
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed = true
			case spread > m.Bound:
				verdict = "unresolved (base spread exceeds bound)"
			}
			fmt.Fprintf(stdout, "  %-16s %12.6g -> %12.6g %s  %+7.2f%%  bound %.0f%%  %s\n",
				m.Name, bm, cm, m.Unit, change*100, m.Bound*100, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func readLedger(path string) ([]ledgerEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ledgerEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var e ledgerEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
