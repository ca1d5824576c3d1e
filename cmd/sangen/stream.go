package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/experiments"
	"repro/internal/gplus"
	"repro/internal/obs"
	"repro/internal/san"
	"repro/internal/sanserve"
	"repro/internal/snapstore"
)

// Streaming generation: `sangen -model gplus -stream-out FILE` packs
// the daily timeline straight to disk through a snapstore.StreamWriter
// instead of materializing it, so resident memory is bounded by the
// live network regardless of horizon or scale.  `-checkpoint-every N`
// additionally persists the complete simulator state every N days into
// FILE.ckpt/; a killed run continues with `sangen -resume FILE.ckpt`
// and produces a final file bitwise-identical to an uninterrupted run.

// ckptMagic identifies a sangen checkpoint file; the trailing byte is
// the format version.
var ckptMagic = []byte{'S', 'A', 'N', 'C', 'K', 1}

// ckptFile is the single file inside the checkpoint directory.
const ckptFile = "checkpoint.bin"

// ckptMeta is the checkpoint's JSON header: everything the resume path
// needs before it can decode the simulator state that follows it —
// where the stream lives, how far it got, and the exact configuration
// (the state codec deliberately does not embed it).
type ckptMeta struct {
	Version     int          `json:"version"`
	Day         int          `json:"day"`
	Observed    bool         `json:"observed"`
	StreamOut   string       `json:"stream_out"`
	Every       int          `json:"checkpoint_every"`
	DayLens     []int        `json:"day_lens"`
	PackedBytes int          `json:"packed_bytes"`
	Config      gplus.Config `json:"config"`
}

// streamRun drives one streaming simulation segment (fresh or resumed)
// to its stop day, checkpointing along the way.
type streamRun struct {
	sim       *gplus.Simulator
	w         *snapstore.StreamWriter
	out       string // final timeline path
	ckptDir   string
	observed  bool
	every     int    // checkpoint cadence in days; 0 = never
	serveAddr string // with -serve: live /v1/stream tail address
}

// runStream starts a fresh streaming generation.
func runStream(cfg gplus.Config, out string, observed bool, every, stopAfter int, progress bool, serveAddr string) error {
	w, err := snapstore.NewStreamWriter(out)
	if err != nil {
		return err
	}
	r := &streamRun{
		sim:       gplus.New(cfg),
		w:         w,
		out:       out,
		ckptDir:   out + ".ckpt",
		observed:  observed,
		every:     every,
		serveAddr: serveAddr,
	}
	return r.run(1, stopAfter, progress)
}

// runResume continues a streaming generation from a checkpoint
// directory.  Configuration, output path and cadence all come from the
// checkpoint; only -stop-after, -progress and -serve apply to the new
// segment.
func runResume(dir string, stopAfter int, progress bool, serveAddr string) error {
	meta, state, err := openCheckpoint(dir)
	if err != nil {
		return err
	}
	sim, err := gplus.ReadSimulator(meta.Config, state, gplus.NewScratch())
	state.Close()
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if sim.Day() != meta.Day {
		return fmt.Errorf("resume: checkpoint header says day %d, state says day %d", meta.Day, sim.Day())
	}
	// The stream encoder resumes against the network the *sink* last
	// saw: the full SAN, masked to the crawl view for observed streams.
	var keep []bool
	if meta.Observed {
		keep = sim.DeclaredMask()
	}
	w, err := snapstore.ResumeStreamWriter(meta.StreamOut, meta.DayLens, sim.G, keep)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	r := &streamRun{
		sim:       sim,
		w:         w,
		out:       meta.StreamOut,
		ckptDir:   dir,
		observed:  meta.Observed,
		every:     meta.Every,
		serveAddr: serveAddr,
	}
	return r.run(meta.Day+1, stopAfter, progress)
}

func (r *streamRun) run(startDay, stopAfter int, progress bool) error {
	// On any exit short of Finalize: with checkpointing on, keep the
	// spill (the latest checkpoint can resume it); without, remove it.
	defer func() {
		if r.every > 0 {
			r.w.Close()
		} else {
			r.w.Abort()
		}
	}()
	cfg := r.sim.Cfg
	if progress {
		prog := obs.NewProgress("gplus")
		// Count only this segment's days, so a resumed run's ETA is
		// paced on work it actually did.
		prog.AddTotalDays(cfg.Days - startDay + 1)
		r.sim.Progress = prog
		stopTick := prog.Tick(2*time.Second, func(ps obs.ProgressSnapshot) {
			fmt.Fprintln(os.Stderr, "sangen:", ps)
		})
		defer stopTick()
	}
	stopDay := 0
	if stopAfter > 0 && stopAfter < cfg.Days {
		stopDay = stopAfter
	}
	fullSink, viewSink := r.fullSink(), r.viewSink()
	if r.serveAddr != "" {
		// -serve: tee the packed stream into an in-memory live timeline
		// and mount it on an HTTP server, so /v1/stream tails the
		// simulation while it runs.  Finish releases tailing clients at
		// the end of this segment; stopServe then drains and shuts down.
		live := snapstore.NewLive()
		stopServe, err := serveLive(r.serveAddr, live)
		if err != nil {
			return err
		}
		defer stopServe()
		defer live.Finish()
		if r.observed {
			viewSink = snapstore.Tee(viewSink, live)
		} else {
			fullSink = snapstore.Tee(fullSink, live)
		}
	}
	// At each checkpoint day, flush the spill (the durability barrier:
	// the spill must hold every checkpointed day before the state that
	// claims them reaches disk), then write the checkpoint.  The perDay
	// hook runs after the day's records are handed to the writer.
	err := r.sim.StreamTimelines(startDay, stopDay, fullSink, viewSink, func(day int, _, _ *san.SAN) error {
		if r.every <= 0 || day >= cfg.Days || (day%r.every != 0 && day != stopDay) {
			return nil
		}
		if err := r.w.Flush(); err != nil {
			return err
		}
		return r.writeCheckpoint()
	})
	if err != nil {
		return err
	}
	if stopDay > 0 {
		if r.every <= 0 {
			fmt.Fprintf(os.Stderr, "sangen: stopped after day %d; no -checkpoint-every, so this run cannot be resumed\n", stopDay)
			return nil
		}
		fmt.Fprintf(os.Stderr, "sangen: stopped after day %d/%d; resume with: sangen -resume %s\n",
			stopDay, cfg.Days, r.ckptDir)
		return nil
	}
	if err := r.w.Finalize(); err != nil {
		return err
	}
	if r.every > 0 {
		if err := os.RemoveAll(r.ckptDir); err != nil {
			return fmt.Errorf("removing finished checkpoint: %w", err)
		}
	}
	g := r.sim.G
	fmt.Fprintf(os.Stderr, "sangen: %d social nodes, %d social links, %d attribute nodes, %d attribute links; %d days packed to %s (%.1f MiB)\n",
		g.NumSocial(), g.NumSocialEdges(), g.NumAttrs(), g.NumAttrEdges(),
		r.w.NumDays(), r.out, float64(r.w.PackedBytes())/(1<<20))
	return nil
}

func (r *streamRun) fullSink() snapstore.DaySink {
	if r.observed {
		return nil
	}
	return r.w
}

func (r *streamRun) viewSink() snapstore.DaySink {
	if r.observed {
		return r.w
	}
	return nil
}

// writeCheckpoint atomically persists the JSON header plus the full
// simulator state.  The previous checkpoint is replaced only by the
// rename, so a kill mid-write leaves the old one intact.
func (r *streamRun) writeCheckpoint() error {
	if err := os.MkdirAll(r.ckptDir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	meta := ckptMeta{
		Version:     1,
		Day:         r.sim.Day(),
		Observed:    r.observed,
		StreamOut:   r.out,
		Every:       r.every,
		DayLens:     r.w.DayLens(),
		PackedBytes: r.w.PackedBytes(),
		Config:      r.sim.Cfg,
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return atomicio.WriteFile(filepath.Join(r.ckptDir, ckptFile), func(out io.Writer) error {
		hdr := append([]byte(nil), ckptMagic...)
		hdr = binary.AppendUvarint(hdr, uint64(len(metaJSON)))
		hdr = append(hdr, metaJSON...)
		if _, err := out.Write(hdr); err != nil {
			return err
		}
		return r.sim.WriteState(out)
	})
}

// openCheckpoint parses the checkpoint header and returns a reader
// positioned at the simulator state.
func openCheckpoint(dir string) (ckptMeta, io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(dir, ckptFile))
	if err != nil {
		return ckptMeta{}, nil, fmt.Errorf("resume: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	fail := func(err error) (ckptMeta, io.ReadCloser, error) {
		f.Close()
		return ckptMeta{}, nil, err
	}
	magic := make([]byte, len(ckptMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fail(fmt.Errorf("resume: reading checkpoint header: %w", err))
	}
	if !bytes.Equal(magic, ckptMagic) {
		return fail(fmt.Errorf("resume: %s is not a sangen checkpoint (magic %q)", filepath.Join(dir, ckptFile), magic))
	}
	mlen, err := binary.ReadUvarint(br)
	if err != nil || mlen > 1<<20 {
		return fail(fmt.Errorf("resume: corrupt checkpoint header length"))
	}
	metaJSON := make([]byte, mlen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return fail(fmt.Errorf("resume: reading checkpoint header: %w", err))
	}
	var meta ckptMeta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return fail(fmt.Errorf("resume: corrupt checkpoint header: %w", err))
	}
	if meta.Version != 1 {
		return fail(fmt.Errorf("resume: unsupported checkpoint version %d", meta.Version))
	}
	if meta.Day < 1 || len(meta.DayLens) != meta.Day {
		return fail(fmt.Errorf("resume: checkpoint header inconsistent: day %d with %d recorded day records", meta.Day, len(meta.DayLens)))
	}
	return meta, readCloser{br, f}, nil
}

type readCloser struct {
	io.Reader
	io.Closer
}

// liveMountName is the mount a -serve run exposes; the tail URL is
// /v1/stream/live.
const liveMountName = "live"

// serveLive starts a sanserve instance with one live mount and returns
// a stop function that drains active streams and shuts the listener
// down.  The bound address is reported on stderr (useful with :0).
func serveLive(addr string, live *snapstore.Live) (stop func(), err error) {
	srv := sanserve.New(sanserve.Options{Cfg: experiments.QuickConfig()})
	if err := srv.MountLive(liveMountName, live); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-serve: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go httpSrv.Serve(ln)
	fmt.Fprintf(os.Stderr, "sangen: live tail at http://%s/v1/stream/%s\n", ln.Addr(), liveMountName)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// The live timeline is finished by the time we get here, so a
		// tailing client that lags the simulation frontier still has
		// buffered days to read; give active streams a grace window to
		// drain on their own done records before DrainStreams cancels
		// stragglers, then close the listener.
		for srv.ActiveStreams() > 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		if err := srv.DrainStreams(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "sangen: draining live streams:", err)
		}
		httpSrv.Shutdown(ctx)
		srv.Close()
	}, nil
}
