package tsm

// Facade-level differential tests for the version 3 indexed codec: parallel
// per-chunk decode and ranged replay must produce reports bit-identical to
// the serial streaming path, for every workload and any worker count.

import (
	"os"
	"strings"
	"testing"

	"tsm/internal/stream"
)

// TestParallelFileReplayParityAllWorkloads is the tentpole's acceptance
// criterion: for EVERY workload, EvaluateTSEFileWith at 1, 4 and 8 decode
// workers produces a Report bit-identical to the serial streaming decode.
// Worker count is a performance knob, never a semantics knob.
func TestParallelFileReplayParityAllWorkloads(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	dir := t.TempDir()
	for _, name := range AllWorkloads() {
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
			want, err := replayTSE(path) // serial decode
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 8} {
				got, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: workers}, Instrumentation{})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got != want {
					t.Fatalf("workers=%d report %+v != serial report %+v", workers, got, want)
				}
			}
		})
	}
}

// TestParallelEvaluateAllAndSweep extends the parity to the other two replay
// entry points: the Figure 12 comparison and a named sweep, each decoded by
// 4 parallel workers, must match their serial-decode results cell for cell.
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
			t.Fatalf("model %d: parallel report %+v != serial %+v", i, gotAll[i], wantAll[i])
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
			t.Fatalf("cell %d: parallel %+v != serial %+v", i, gotSweep[i], wantSweep[i])
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
		want, err := EvaluateTSESource(stream.NewSliceSource(loaded.Events[from:hi]), meta)
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
// mmap replay must produce a Report bit-identical to the serial streaming
// decode at any worker count (0 selects the indexed default), and an mmap
// request on a pre-index file falls back to the serial decoder like any
// other parallel request. On platforms without mmap support the mapping
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
			t.Fatalf("mmap workers=%d report %+v != serial report %+v", workers, got, want)
		}
	}

	v2 := rewriteAsV2(t, path)
	got, err := EvaluateTSEFileWith(v2, ReplayConfig{Mmap: true}, Instrumentation{})
	if err != nil {
		t.Fatalf("mmap request on v2 file should fall back, got: %v", err)
	}
	if got != want {
		t.Fatalf("v2 mmap fallback report %+v != v3 report %+v", got, want)
	}
}

// TestParallelRequestFallsBackOnV2 pins the compatibility contract: a
// parallel-decode request on a pre-index (version 2) file quietly falls back
// to the serial decoder and still produces the right report, while a RANGED
// request on the same file fails loudly — a silently ignored -from/-to would
// be a wrong answer.
func TestParallelRequestFallsBackOnV2(t *testing.T) {
	path := writeTestTrace(t, "em3d")
	want, err := replayTSE(path)
	if err != nil {
		t.Fatal(err)
	}
	v2 := rewriteAsV2(t, path)

	got, err := EvaluateTSEFileWith(v2, ReplayConfig{DecodeWorkers: 4}, Instrumentation{})
	if err != nil {
		t.Fatalf("parallel request on v2 file should fall back, got: %v", err)
	}
	if got != want {
		t.Fatalf("v2 fallback report %+v != v3 report %+v", got, want)
	}

	_, err = EvaluateTSEFileWith(v2, ReplayConfig{From: 1, To: 10}, Instrumentation{})
	if err == nil {
		t.Fatal("ranged replay of an unindexed file succeeded; the range would have been ignored")
	}
	if !strings.Contains(err.Error(), "index") {
		t.Fatalf("ranged-replay error should explain the missing index: %v", err)
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

// rewriteAsV2 re-encodes a trace file with the pre-index codec version.
func rewriteAsV2(t *testing.T, path string) string {
	t.Helper()
	f, err := stream.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := strings.TrimSuffix(path, ".tsm") + ".v2.tsm"
	of, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stream.NewWriterVersion(of, f.Meta(), stream.VersionNoIndex)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Copy(w, f); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}
