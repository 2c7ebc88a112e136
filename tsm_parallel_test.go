package tsm

// Facade-level differential tests for the indexed codec: parallel
// per-chunk decode and ranged replay must produce reports bit-identical to
// the default inline decode, for every workload and any worker count.

import (
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/workload"
)

// TestParallelFileReplayParityAllWorkloads is the tentpole's acceptance
// criterion: for EVERY workload, EvaluateTSEFileWith at 1, 4 and 8 decode
// workers produces a Report bit-identical to the inline decode.
// Worker count is a performance knob, never a semantics knob.
func TestParallelFileReplayParityAllWorkloads(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	dir := t.TempDir()
	for _, name := range workload.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, gen, err := GenerateTrace(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := dir + "/" + name + ".tsm"
			if err := SaveTrace(path, tr, gen, opts); err != nil {
				t.Fatal(err)
			}
			want, err := replayTSE(path) // inline decode
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 8} {
				got, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: workers}, Instrumentation{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Fatalf("workers=%d report %+v != inline report %+v", workers, got, want)
				}
			}
		})
	}
}

// TestParallelEvaluateAllAndSweep extends the parity to the other two replay
// entry points: the Figure 12 comparison and a named sweep, each decoded by
// 4 parallel workers, must match their inline-decode results cell for cell.
func TestParallelEvaluateAllAndSweep(t *testing.T) {
	path := writeTestTrace(t, "ocean")
	rc := ReplayConfig{DecodeWorkers: 4}

	wantAll, err := replayAll(path)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, err := EvaluateAllFileWith(path, rc, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAll) != len(wantAll) {
		t.Fatalf("got %d reports, want %d", len(gotAll), len(wantAll))
	}
	for i := range wantAll {
		if gotAll[i] != wantAll[i] {
			t.Fatalf("model %d: parallel report %+v != inline %+v", i, gotAll[i], wantAll[i])
		}
	}

	wantSweep, err := replaySweep(path, "lookahead")
	if err != nil {
		t.Fatal(err)
	}
	gotSweep, err := EvaluateTSESweepFileWith(path, "lookahead", rc, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSweep) != len(wantSweep) {
		t.Fatalf("got %d cells, want %d", len(gotSweep), len(wantSweep))
	}
	for i := range wantSweep {
		if gotSweep[i] != wantSweep[i] {
			t.Fatalf("cell %d: parallel %+v != inline %+v", i, gotSweep[i], wantSweep[i])
		}
	}
}

// TestRangedFileReplay replays [from, to) sub-ranges through the index and
// checks each matches evaluating the same slice of the loaded trace in
// memory — ranged replay is a seek, not a different computation.
func TestRangedFileReplay(t *testing.T) {
	path := writeTestTrace(t, "moldyn")
	loaded, meta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(loaded.Events))
	if n < 100 {
		t.Fatalf("test trace too small: %d events", n)
	}
	ranges := [][2]uint64{
		{0, 0},             // full trace via the ranged path
		{0, n / 2},         // prefix
		{n / 3, 0},         // suffix
		{n / 4, 3 * n / 4}, // interior window
		{n - 1, n},         // single event
	}
	for _, rg := range ranges {
		from, to := rg[0], rg[1]
		hi := to
		if hi == 0 {
			hi = n
		}
		want, err := evaluateTSESourceWith(pipeline.Config{}, stream.NewSliceSource(loaded.Events[from:hi]), meta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: 4, From: from, To: to}, Instrumentation{})
		if err != nil {
			t.Fatalf("range [%d, %d): %v", from, to, err)
		}
		if got != want {
			t.Fatalf("range [%d, %d): ranged report %+v != in-memory slice report %+v", from, to, got, want)
		}
	}

	// An inverted range is an error, not an empty replay.
	if _, err := EvaluateTSEFileWith(path, ReplayConfig{From: 10, To: 5}, Instrumentation{}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestMmapFileReplayParity extends the parity to mmap-backed decode: an
// mmap replay must produce a Report bit-identical to the default inline
// decode at any worker count. On platforms without mmap support the mapping
// degrades to ReadAt, so the parity holds everywhere.
func TestMmapFileReplayParity(t *testing.T) {
	path := writeTestTrace(t, "db2")
	want, err := replayTSE(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4, 8} {
		got, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: workers, Mmap: true}, Instrumentation{})
		if err != nil {
			t.Fatalf("mmap workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("mmap workers=%d report %+v != inline report %+v", workers, got, want)
		}
	}
}

// TestReplayRejectsOldVersion: a file of the previous codec version (2: no
// chunk-index footer) fails every replay setting — inline, pooled, mmap and
// ranged — with a wrapped stream.ErrVersion instead of a report.
func TestReplayRejectsOldVersion(t *testing.T) {
	path := writeTestTrace(t, "em3d")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A version 2 file is a version 3 file without its footer: drop the
	// payload, its 8-byte length and the 4-byte magic, then patch the
	// version byte.
	payload := binary.LittleEndian.Uint64(data[len(data)-12:])
	v2 := data[:len(data)-12-int(payload)]
	v2[4] = 2
	v2Path := strings.TrimSuffix(path, ".tsm") + ".v2.tsm"
	if err := os.WriteFile(v2Path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, rc := range []ReplayConfig{{}, {DecodeWorkers: 4}, {Mmap: true}, {From: 1, To: 10}} {
		if _, err := EvaluateTSEFileWith(v2Path, rc, Instrumentation{}); !errors.Is(err, stream.ErrVersion) {
			t.Fatalf("%+v: err = %v, want stream.ErrVersion", rc, err)
		}
	}
}

// writeTestTrace generates one small workload trace file for replay tests.
func writeTestTrace(t *testing.T, workload string) string {
	t.Helper()
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	tr, gen, err := GenerateTrace(workload, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/" + workload + ".tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	return path
}
