package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"

	"repro/internal/experiments"
)

// Each measured repetition runs in a child process: the same binary,
// started with the job in the PERFBENCH_CHILD environment variable.
// A fresh process per repetition keeps figures cold (the experiments
// package memoizes model networks per process) and gives every
// workload a peak RSS of its own, read from the child's rusage.
const childEnv = "PERFBENCH_CHILD"

// job is what a child process runs.
type job struct {
	Kind      string             `json:"kind"` // grow, paper, fold, figures or server
	Dir       string             `json:"dir"`
	DailyBase int                `json:"daily_base,omitempty"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	SpanBase  int64              `json:"span_base"`
	Full      string             `json:"full,omitempty"`
	View      string             `json:"view,omitempty"`
	Exp       experiments.Config `json:"exp"`
	Figs      []string           `json:"figs,omitempty"`
}

// result is a child's report; the parent aggregates them.
type result struct {
	Metrics map[string]float64 `json:"metrics"`
	// Samples are per-operation latencies in milliseconds: packed days
	// for grow, streamed fold days for paper.
	Samples  []float64         `json:"samples,omitempty"`
	Checks   int               `json:"checks"`
	Failures []string          `json:"failures,omitempty"`
	Hashes   map[string]string `json:"hashes,omitempty"`
	Spans    []Span            `json:"spans,omitempty"`
	Addr     string            `json:"addr,omitempty"`
	// PeakRSSMiB is filled in by the parent from the child's rusage.
	PeakRSSMiB float64 `json:"-"`
}

func newResult() *result { return &result{Metrics: map[string]float64{}} }

// check counts one output check and records a failure when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// childMain runs the job named by the environment and exits.
func childMain(spec string) {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child: bad job:", err)
		os.Exit(2)
	}
	var (
		r   *result
		err error
	)
	switch j.Kind {
	case "grow":
		r, err = growJob(j)
	case "paper":
		r, err = paperJob(j)
	case "fold":
		r, err = foldJob(j)
	case "figures":
		r, err = figuresJob(j)
	case "server":
		r, err = serverJob(j, os.Stdin, os.Stdout)
	default:
		err = fmt.Errorf("unknown job kind %q", j.Kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", j.Kind, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// proc is a running child process.
type proc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startChild(j job) (*proc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s child: %w", j.Kind, err)
	}
	return &proc{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}, nil
}

// readResult decodes the next JSON line the child prints.
func (p *proc) readResult() (*result, error) {
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("reading child output: %w", err)
	}
	r := newResult()
	if err := json.Unmarshal(line, r); err != nil {
		return nil, fmt.Errorf("decoding child output: %w", err)
	}
	return r, nil
}

// finish closes the child's stdin, drains its output, waits for it to
// exit and returns its peak RSS in MiB.
func (p *proc) finish() (float64, error) {
	p.stdin.Close()
	io.Copy(io.Discard, p.out)
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("child: %w", err)
	}
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("child: no rusage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// kill stops a child that is being abandoned and waits for it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.stdin.Close()
	io.Copy(io.Discard, p.out)
	p.cmd.Wait()
}

// runChild runs one job to completion in a child process.
func runChild(j job) (*result, error) {
	p, err := startChild(j)
	if err != nil {
		return nil, err
	}
	r, err := p.readResult()
	if err != nil {
		p.kill()
		return nil, fmt.Errorf("%s child: %w", j.Kind, err)
	}
	if r.PeakRSSMiB, err = p.finish(); err != nil {
		return nil, fmt.Errorf("%s child: %w", j.Kind, err)
	}
	return r, nil
}
