package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain lets the test binary serve as its own child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		childMain(spec)
	}
	os.Exit(m.Run())
}

// tinyScale keeps the tests fast.
var tinyScale = scale{
	GrowDailyBase:  30,
	InputDailyBase: 30,
	WarmDailyBase:  10,
	SetupRounds:    2,
	ExtraCrawls:    1,
	Exp:            experiments.Config{Scale: 20, ModelT: 300, Seed: 42, DiamEvery: 14, HLLBits: 4},
	OpenRate:       40,
	ScriptRate:     40,
	BatchSize:      20,
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}

// TestWorkloadsTiny runs every workload at tiny scale, untraced and
// traced, and checks that the last line names every metric with its
// unit and that the output checks ran and passed.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range []string{"grow", "paper", "serve"} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				o := options{workload: w, seed: 7, seconds: 0.5, traced: traced, scale: tinyScale, out: out}
				var stdout, stderr bytes.Buffer
				if err := runMain(o, &stdout, &stderr); err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line: %v\n%s", err, stdout.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 10 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
				}
				want := b.EndToEnd
				if traced {
					want = b.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					traces, _ := filepath.Glob(filepath.Join(out, "traces", w+"-seed7-*.json"))
					if len(traces) != 1 {
						t.Errorf("trace files: %v", traces)
					}
				}
				if _, err := os.Stat(filepath.Join(out, "results.jsonl")); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := withSelfTimes([]Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 25},
	})
	want := map[string]int64{"root": 60, "a": 25, "b": 20, "c": 5}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s self = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fp Fingerprint) string {
		path := filepath.Join(dir, name)
		e := ledgerEntry{Fingerprint: fp, Workload: "grow", report: report{Metrics: map[string]metricValue{"wall_s": {1, "s"}}}}
		if err := appendLedger(path, e); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fp := fingerprint()
	other := fp
	other.NumCPU++
	a, b := write("a.jsonl", fp), write("b.jsonl", other)
	wd, _ := os.Getwd()
	if err := os.Chdir(".."); err != nil { // compare reads BENCHMARK.json from the root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := compareMain([]string{a, b}, &stdout, &stderr); code != 3 {
		t.Errorf("compare across fingerprints: exit %d, want 3\n%s", code, stderr.String())
	}
	if code := compareMain([]string{a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("compare of one ledger with itself: exit %d, want 0\n%s", code, stderr.String())
	}
}
