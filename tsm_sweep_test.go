package tsm

import (
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/workload"
)

// sweepNames are the named sweeps EvaluateTSESweepFileWith understands.
var sweepNames = []string{"streams", "lookahead", "svb"}

// TestSweepSingleDecodePass is the sweep facade's acceptance criterion: for
// every named sweep, EvaluateTSESweepSource must decode the stream exactly
// ONCE — N events + one EOF — however many cells the sweep has, and each
// cell's report must match evaluating that cell's configuration on its own.
func TestSweepSingleDecodePass(t *testing.T) {
	opts := testOpts()
	tr, _, err := GenerateTrace("db2", opts)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{Workload: "db2", Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed}
	wantNexts := tr.Len() + 1

	for _, sweep := range sweepNames {
		src := &passCountingSource{src: stream.TraceSource(tr)}
		cells, err := EvaluateTSESweepSource(src, meta, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if src.nexts != wantNexts {
			t.Errorf("sweep %q (%d cells) read the source %d times, want %d (one decode pass)",
				sweep, len(cells), src.nexts, wantNexts)
		}
		if len(cells) < 2 {
			t.Fatalf("sweep %q returned %d cells", sweep, len(cells))
		}

		// Per-cell parity: each cell must equal its own independent pass.
		labels, cfgs, err := sweepConfigs(sweep, opts.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if cells[i].Label != labels[i] {
				t.Errorf("sweep %q cell %d label = %q, want %q", sweep, i, cells[i].Label, labels[i])
			}
			cov, _ := analysis.EvaluateTSE(cfg, tr)
			if want := coverageReport(cov); cells[i].Report != want {
				t.Errorf("sweep %q cell %q: %+v != independent pass %+v", sweep, cells[i].Label, cells[i].Report, want)
			}
		}
	}

	if _, err := EvaluateTSESweepSource(stream.TraceSource(tr), meta, "bogus"); err == nil {
		t.Fatal("unknown sweep should error")
	}
	if _, err := EvaluateTSESweepSource(stream.TraceSource(tr), TraceMeta{Workload: "bogus"}, "streams"); err == nil {
		t.Fatal("bogus metadata should error")
	}
}

// TestSweepStrategyParityAllWorkloads is the broadcast-schedule differential
// at the facade level, across EVERY registered workload (mixes included): the
// default ring schedule and a deliberately tight one — tiny chunks through a
// one-slot ring, so every consumer stalls on every chunk boundary — must
// produce identical sweep cells, and both must match the independent per-cell
// passes.
func TestSweepStrategyParityAllWorkloads(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	for _, name := range workload.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, _, err := GenerateTrace(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, cfgs, err := sweepConfigs("lookahead", opts.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			ring, err := analysis.SweepWith(pipeline.Config{}, cfgs, stream.TraceSource(tr))
			if err != nil {
				t.Fatal(err)
			}
			tight, err := analysis.SweepWith(pipeline.Config{ChunkEvents: 7, ChunkBuffer: 1}, cfgs, stream.TraceSource(tr))
			if err != nil {
				t.Fatal(err)
			}
			for i, cfg := range cfgs {
				if ring[i].Coverage != tight[i].Coverage {
					t.Fatalf("cell %d: default schedule %+v != tight schedule %+v", i, ring[i].Coverage, tight[i].Coverage)
				}
				want, _ := analysis.EvaluateTSE(cfg, tr)
				if ring[i].Coverage != want {
					t.Fatalf("cell %d: sweep %+v != independent pass %+v", i, ring[i].Coverage, want)
				}
			}
		})
	}
}

// TestEvaluateTSESweepFile: the file path (EvaluateTSESweepFileWith) must
// reproduce the source path bit for bit with exactly one decode of the file, and fail cleanly on unknown
// sweeps and missing files.
func TestEvaluateTSESweepFile(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("memkv", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/memkv.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{Workload: "memkv", Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed}
	for _, sweep := range sweepNames {
		want, err := EvaluateTSESweepSource(stream.TraceSource(tr), meta, sweep)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replaySweep(path, sweep)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("sweep %q: file returned %d cells, want %d", sweep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("sweep %q cell %d: file %+v != source %+v", sweep, i, got[i], want[i])
			}
		}
	}
	if _, err := replaySweep(path, "bogus"); err == nil {
		t.Fatal("unknown sweep should error")
	}
	if _, err := replaySweep(t.TempDir()+"/missing.tsm", "streams"); err == nil {
		t.Fatal("missing file should error")
	}
}
