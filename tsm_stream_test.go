package tsm

import (
	"bytes"
	"strings"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/workload"
)

// TestStreamedTraceFileBytesMatchMaterialized is the byte-level check of the
// generation path: for EVERY registered workload (the ten-suite plus the
// mixes), encoding the trace through the fully streamed pipeline — generator
// Emit → coherence engine → codec, no intermediate slice anywhere — must
// produce a .tsm byte stream identical to encoding the classified trace
// GenerateTrace materializes (Emit → RunFrom → copy into a writer).
func TestStreamedTraceFileBytesMatchMaterialized(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.03, Seed: 11}
	for _, name := range workload.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			// Streamed: no access slice, no event slice.
			var streamed bytes.Buffer
			w, err := stream.NewWriter(&streamed, stream.Meta{Workload: name, Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := StreamTrace(name, opts, w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			// Materialized reference.
			tr, gen, err := GenerateTrace(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			var materialized bytes.Buffer
			mw, err := stream.NewWriter(&materialized, stream.Meta{Workload: strings.ToLower(gen.Name()), Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stream.Copy(mw, stream.TraceSource(tr)); err != nil {
				t.Fatal(err)
			}
			if err := mw.Close(); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(streamed.Bytes(), materialized.Bytes()) {
				t.Fatalf("%s: streamed .tsm (%d bytes) differs from materialized .tsm (%d bytes)",
					name, streamed.Len(), materialized.Len())
			}
		})
	}
}

// TestStreamTraceMatchesGenerateTrace: the streaming generation path must
// emit exactly the events the materializing path produces.
func TestStreamTraceMatchesGenerateTrace(t *testing.T) {
	opts := testOpts()
	want, _, err := GenerateTrace("db2", opts)
	if err != nil {
		t.Fatal(err)
	}
	var sink stream.TraceSink
	_, n, err := StreamTrace("db2", opts, &sink)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != want.Len() || sink.Trace.Len() != want.Len() {
		t.Fatalf("streamed %d events (sink %d), want %d", n, sink.Trace.Len(), want.Len())
	}
	for i := range want.Events {
		if sink.Trace.Events[i] != want.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, sink.Trace.Events[i], want.Events[i])
		}
	}
	if _, _, err := StreamTrace("nope", opts, &sink); err == nil {
		t.Fatal("unknown workload should error")
	}
}

// TestTraceFileRoundTripReport is the cross-process acceptance path in
// miniature: generate→save→load→evaluate must reproduce the in-process
// Report bit for bit (coverage, discards, and the timing-model speedup).
func TestTraceFileRoundTripReport(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("em3d", opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateTSE(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/em3d.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "em3d" || meta.Nodes != opts.Nodes || meta.Scale != opts.Scale || meta.Seed != opts.Seed {
		t.Fatalf("meta = %+v, want the generation options", meta)
	}
	gen2, err := GeneratorFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EvaluateTSE(loaded, gen2, OptionsFor(meta))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replayed report %+v != in-process report %+v", got, want)
	}

	if err := SaveTrace(path, nil, gen, opts); err == nil {
		t.Fatal("nil trace should error")
	}
	if _, err := GeneratorFor(TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
}

// Zero-config file replay — what tsesim -i runs without decode flags — for
// the tests that do not exercise ReplayConfig or Instrumentation.
func replayTSE(path string) (Report, error) {
	return EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{})
}

func replayAll(path string) ([]Report, error) {
	return EvaluateAllFileWith(path, ReplayConfig{}, Instrumentation{})
}

func replaySweep(path, sweep string) ([]SweepCell, error) {
	return EvaluateTSESweepFileWith(path, sweep, ReplayConfig{}, Instrumentation{})
}

// oracle holds the serial in-memory reference results for one trace file:
// load the whole trace, then run each model over it in turn — EvaluateTSE
// for the TSE report, ComparePrefetchers for the Figure 12 comparison, and
// one analysis.EvaluateTSE per sweep cell. Every production evaluation path
// must equal it.
type oracle struct {
	tse    Report
	all    []Report
	sweeps map[string][]SweepCell
}

func oracleFor(t *testing.T, path string) oracle {
	t.Helper()
	tr, meta, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := GeneratorFor(meta)
	if err != nil {
		t.Fatal(err)
	}
	opts := OptionsFor(meta)
	o := oracle{sweeps: map[string][]SweepCell{}}
	if o.tse, err = EvaluateTSE(tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	if o.all, err = ComparePrefetchers(tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	for _, sweep := range sweepNames {
		labels, cfgs, err := sweepConfigs(sweep, opts.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		cells := make([]SweepCell, len(cfgs))
		for i, cfg := range cfgs {
			cov, _ := analysis.EvaluateTSE(cfg, tr)
			cells[i] = SweepCell{Label: labels[i], Report: coverageReport(cov)}
		}
		o.sweeps[sweep] = cells
	}
	return o
}

// assertSame fails the test unless got equals want element for element.
func assertSame[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// TestFileReplayParityAllWorkloads is the one-engine acceptance criterion:
// for EVERY workload — the paper's seven, the extended matrix and the
// cross-workload mixes — each production file evaluation (TSE replay, the
// Figure 12 comparison, and all three named sweeps, each one fused decode
// through the ring) must equal the serial in-memory oracle bit for bit.
func TestFileReplayParityAllWorkloads(t *testing.T) {
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
			want := oracleFor(t, path)

			rep, err := replayTSE(path)
			if err != nil {
				t.Fatal(err)
			}
			if rep != want.tse {
				t.Fatalf("fused report %+v != oracle %+v", rep, want.tse)
			}
			all, err := replayAll(path)
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, "compare", all, want.all)
			for _, sweep := range sweepNames {
				cells, err := replaySweep(path, sweep)
				if err != nil {
					t.Fatal(err)
				}
				assertSame(t, "sweep "+sweep, cells, want.sweeps[sweep])
			}
		})
	}
	if _, err := replayTSE(dir + "/missing.tsm"); err == nil {
		t.Fatal("missing file should error")
	}
	if _, err := replayAll(dir + "/missing.tsm"); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestEvaluateAllFileMatchesEvaluateAll: the streamed Figure 12 comparison
// over a trace file — inline decode and four decode workers —
// must reproduce the in-memory comparison (ComparePrefetchers) exactly.
func TestEvaluateAllFileMatchesEvaluateAll(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("memkv", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/memkv.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	want, err := ComparePrefetchers(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayAll(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "streamed compare", got, want)
	indexed, err := EvaluateAllFileWith(path, ReplayConfig{DecodeWorkers: 4}, Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "indexed compare", indexed, want)
}

// passCountingSource wraps a Source and counts Next calls, so a test can
// assert how many times a pipeline decoded the stream: a single full pass
// over an N-event trace is exactly N+1 calls (the events plus one io.EOF).
type passCountingSource struct {
	src   EventSource
	nexts int
}

func (c *passCountingSource) Next() (Event, error) {
	c.nexts++
	return c.src.Next()
}

// TestSingleDecodePass: the fused replay engine behind EvaluateTSEFileWith
// and EvaluateAllFileWith must decode the trace exactly ONCE — N events + one
// EOF read from the source — even though the TSE report needs three
// consumers and the Figure 12 comparison four, and the reports must match
// the serial in-memory oracle bit for bit.
func TestSingleDecodePass(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("db2", opts)
	if err != nil {
		t.Fatal(err)
	}
	meta := TraceMeta{Workload: "db2", Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed}
	wantNexts := tr.Len() + 1

	want, err := EvaluateTSE(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	src := &passCountingSource{src: stream.TraceSource(tr)}
	got, err := evaluateTSESourceWith(pipeline.Config{}, src, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("single-pass report %+v != in-memory report %+v", got, want)
	}
	if src.nexts != wantNexts {
		t.Fatalf("evaluateTSESourceWith read the source %d times, want %d (one decode pass)", src.nexts, wantNexts)
	}

	wantAll, err := ComparePrefetchers(tr, gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	src = &passCountingSource{src: stream.TraceSource(tr)}
	gotAll, err := evaluateAllSourceWith(pipeline.Config{}, src, meta)
	if err != nil {
		t.Fatal(err)
	}
	assertSame(t, "single-pass compare", gotAll, wantAll)
	if src.nexts != wantNexts {
		t.Fatalf("evaluateAllSourceWith read the source %d times, want %d (one decode pass)", src.nexts, wantNexts)
	}

	if _, err := evaluateTSESourceWith(pipeline.Config{}, stream.TraceSource(tr), TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
	if _, err := evaluateAllSourceWith(pipeline.Config{}, stream.TraceSource(tr), TraceMeta{Workload: "bogus"}); err == nil {
		t.Fatal("bogus metadata should error")
	}
}

// TestReplayMeta: the metadata-only read must match what LoadTrace decodes.
func TestReplayMeta(t *testing.T) {
	opts := testOpts()
	tr, gen, err := GenerateTrace("cdn", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cdn.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		t.Fatal(err)
	}
	meta, err := ReplayMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "cdn" || meta.Nodes != opts.Nodes || meta.Scale != opts.Scale || meta.Seed != opts.Seed {
		t.Fatalf("meta = %+v, want the generation options", meta)
	}
	if _, err := ReplayMeta(path + ".missing"); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestRunExperimentsParallel: the batched parallel runner must render the
// same tables as the serial single-experiment API.
func TestRunExperimentsParallel(t *testing.T) {
	opts := testOpts()
	ids := []string{"table1", "fig6", "fig12"}
	tables, err := RunExperiments(ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(ids) {
		t.Fatalf("got %d tables, want %d", len(tables), len(ids))
	}
	for i, id := range ids {
		want, err := RunExperiment(id, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tables[i] != want {
			t.Errorf("%s: parallel table differs from serial:\n%s\nvs\n%s", id, tables[i], want)
		}
		if !strings.Contains(tables[i], id) {
			t.Errorf("%s: table missing its id header", id)
		}
	}
	if _, err := RunExperiments([]string{"fig999"}, opts); err == nil {
		t.Fatal("unknown experiment should error")
	}
}
