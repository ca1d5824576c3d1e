package gplus

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snapstore"
)

func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 40
	cfg.DailyBase = 120
	return cfg
}

func packBoth(t *testing.T, s *Simulator, startDay, stopDay int, full, view *snapstore.Builder) {
	t.Helper()
	if err := s.StreamTimelines(startDay, stopDay, full, view, nil); err != nil {
		t.Fatalf("StreamTimelines(%d, %d): %v", startDay, stopDay, err)
	}
}

func timelineBytes(t *testing.T, b *snapstore.Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := b.Timeline().WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeDeterminism is the core resume guarantee: a run
// checkpointed at day k and resumed in a fresh simulator produces
// packed timelines bitwise-identical to the uninterrupted run.
func TestCheckpointResumeDeterminism(t *testing.T) {
	cfg := ckptConfig()

	refFull, refView := snapstore.NewBuilder(), snapstore.NewBuilder()
	packBoth(t, New(cfg), 1, 0, refFull, refView)
	wantFull := timelineBytes(t, refFull)
	wantView := timelineBytes(t, refView)

	for _, k := range []int{1, 13, cfg.Days - 1} {
		gotFull, gotView := snapstore.NewBuilder(), snapstore.NewBuilder()

		first := New(cfg)
		packBoth(t, first, 1, k, gotFull, gotView)
		if first.Day() != k {
			t.Fatalf("after stopping at day %d, Day() = %d", k, first.Day())
		}
		var state bytes.Buffer
		if err := first.WriteState(&state); err != nil {
			t.Fatalf("WriteState at day %d: %v", k, err)
		}

		resumed, err := ReadSimulator(cfg, &state, NewScratch())
		if err != nil {
			t.Fatalf("ReadSimulator at day %d: %v", k, err)
		}
		if resumed.Day() != k {
			t.Fatalf("resumed Day() = %d, want %d", resumed.Day(), k)
		}
		packBoth(t, resumed, k+1, 0, gotFull, gotView)

		if !bytes.Equal(timelineBytes(t, gotFull), wantFull) {
			t.Errorf("checkpoint at day %d: full timeline diverges from uninterrupted run", k)
		}
		if !bytes.Equal(timelineBytes(t, gotView), wantView) {
			t.Errorf("checkpoint at day %d: view timeline diverges from uninterrupted run", k)
		}
	}
}

// TestCheckpointResumeRunFrom covers the non-streaming resume path:
// Run to the horizon vs checkpoint + RunFrom, compared via snapshots.
func TestCheckpointResumeRunFrom(t *testing.T) {
	cfg := ckptConfig()
	want := New(cfg).Run(nil)

	const k = 17
	first := New(cfg)
	first.runRange(1, k, nil)
	var state bytes.Buffer
	if err := first.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	resumed, err := ReadSimulator(cfg, &state, NewScratch())
	if err != nil {
		t.Fatalf("ReadSimulator: %v", err)
	}
	got := resumed.RunFrom(k+1, nil)

	if !bytes.Equal(snapstore.EncodeSnapshot(want), snapstore.EncodeSnapshot(got)) {
		t.Errorf("resumed Run diverges from uninterrupted Run")
	}
}

// TestCheckpointRoundTripState pins that a restored simulator writes
// back the exact same state bytes: nothing is lost or reordered in the
// decode/encode cycle.
func TestCheckpointRoundTripState(t *testing.T) {
	cfg := ckptConfig()
	s := New(cfg)
	s.runRange(1, 9, nil)
	var first bytes.Buffer
	if err := s.WriteState(&first); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	restored, err := ReadSimulator(cfg, bytes.NewReader(first.Bytes()), NewScratch())
	if err != nil {
		t.Fatalf("ReadSimulator: %v", err)
	}
	var second bytes.Buffer
	if err := restored.WriteState(&second); err != nil {
		t.Fatalf("WriteState (restored): %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("state bytes changed across a restore round trip (%d vs %d bytes)", first.Len(), second.Len())
	}
}

func TestReadSimulatorRejectsGarbage(t *testing.T) {
	if _, err := ReadSimulator(ckptConfig(), strings.NewReader("not a checkpoint"), NewScratch()); err == nil {
		t.Fatal("ReadSimulator accepted garbage input")
	}
	s := New(ckptConfig())
	s.runRange(1, 3, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	truncated := state.Bytes()[:state.Len()/2]
	if _, err := ReadSimulator(ckptConfig(), bytes.NewReader(truncated), NewScratch()); err == nil {
		t.Fatal("ReadSimulator accepted a truncated checkpoint")
	}
}

// TestCheckpointSplitModeRejected: the GPCK v2 mode byte (offset 5)
// marked checkpoints of the removed split-rng mode.  Such a checkpoint
// must fail to load with an error that says why, not resume under the
// sequential stream.
func TestCheckpointSplitModeRejected(t *testing.T) {
	s := New(ckptConfig())
	s.runRange(1, 5, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	b := state.Bytes()
	if string(b[:4]) != stateMagic || b[4] != 2 || b[5] != 0 || b[6] != 0 {
		t.Fatalf("sequential state header = % x, want GPCK v2 with mode 0 and salt 0", b[:7])
	}
	b[5] = 1
	_, err := ReadSimulator(ckptConfig(), bytes.NewReader(b), NewScratch())
	if err == nil || !strings.Contains(err.Error(), "split") || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("ReadSimulator on a split-mode checkpoint: got %v, want an error naming the removed split mode", err)
	}
}

// TestReadSimulatorBoundsAllocation: length fields claiming far more
// data than the input holds must fail cleanly instead of allocating
// what they claim.  The first input once killed the process with an
// out-of-memory fatal error (a 1 TiB rng-state length); the second
// once reached make with a negative length.
func TestReadSimulatorBoundsAllocation(t *testing.T) {
	s := New(ckptConfig())
	s.runRange(1, 3, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		t.Fatalf("WriteState: %v", err)
	}
	// Magic, version, mode, salt, rng length 20, 20 rng bytes, day 3,
	// 8 bytes of time: the user count starts at offset 37.
	userCount := state.Bytes()[:37]
	if userCount[7] != 20 || userCount[28] != 3 {
		t.Fatalf("unexpected state prefix % x", userCount)
	}
	for name, in := range map[string][]byte{
		"rng state length": binary.AppendUvarint([]byte("GPCK\x02\x00\x00"), 1<<40),
		"negative length":  binary.AppendUvarint([]byte("GPCK\x02\x00\x00"), 1<<63),
		"user count":       binary.AppendUvarint(bytes.Clone(userCount), 1<<40),
	} {
		checkReadBounded(t, ckptConfig(), in)
		if _, err := ReadSimulator(ckptConfig(), bytes.NewReader(in), NewScratch()); err == nil {
			t.Errorf("%s: ReadSimulator accepted %d bytes of corrupt input", name, len(in))
		}
	}
}

// checkReadBounded runs ReadSimulator on in and fails if it allocated
// more than a fixed 2 MiB (the 1 MiB read buffer and small tables) plus
// 512 bytes per input byte: every element the reader keeps costs at
// least one input byte.
func checkReadBounded(t *testing.T, cfg Config, in []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ReadSimulator(cfg, bytes.NewReader(in), NewScratch())
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2<<20+512*len(in)); got > limit {
		t.Fatalf("ReadSimulator allocated %d bytes on %d bytes of input (limit %d)", got, len(in), limit)
	}
}

// FuzzReadSimulator: arbitrary bytes either fail to load or load into
// a simulator, never panic, and never allocate far beyond the input's
// size.  The seed is a real DailyBase-3 checkpoint taken at day 10.
func FuzzReadSimulator(f *testing.F) {
	cfg := DefaultConfig()
	cfg.DailyBase = 3
	s := New(cfg)
	s.runRange(1, 10, nil)
	var state bytes.Buffer
	if err := s.WriteState(&state); err != nil {
		f.Fatalf("WriteState: %v", err)
	}
	f.Add(state.Bytes())
	f.Add(binary.AppendUvarint([]byte("GPCK\x02\x00\x00"), 1<<40))
	f.Add([]byte("GPCK\x02\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadBounded(t, cfg, data)
	})
}
