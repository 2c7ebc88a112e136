// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each figure/table benchmark runs the corresponding experiment
// driver end to end (workload generation, coherence classification, model
// evaluation) and reports the headline metric of that figure as a custom
// benchmark metric, so `go test -bench=. -benchmem` regenerates every result
// in one pass. The golden tables in internal/experiments/testdata/*.golden
// record a reference run of the same drivers.
//
// The benchmarks use a reduced workload scale so the whole suite completes
// in minutes; pass -benchscale to change it, e.g.
//
//	go test -bench=Fig12 -benchtime=1x -benchscale=1.0
package tsm

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

var benchScale = flag.Float64("benchscale", 0.1, "workload scale factor for benchmarks")

// benchWorkspace builds a fresh workspace covering every workload at the
// benchmark scale.
func benchWorkspace() *experiments.Workspace {
	return experiments.NewWorkspace(experiments.Options{Nodes: 16, Scale: *benchScale, Seed: 1})
}

// parsePercentCell converts an experiment table cell like "83.4%" to 83.4.
func parsePercentCell(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		b.Fatalf("cannot parse %q: %v", cell, err)
	}
	return v
}

// runExperiment executes one experiment driver b.N times and returns the
// final table.
func runExperiment(b *testing.B, run experiments.Runner) experiments.Table {
	b.Helper()
	var tbl experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		w := benchWorkspace()
		tbl, err = run(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// averageColumn averages a percentage column over all rows, optionally
// filtered by a predicate on the row.
func averageColumn(b *testing.B, tbl experiments.Table, col int, keep func(row []string) bool) float64 {
	b.Helper()
	var sum float64
	var n int
	for _, row := range tbl.Rows {
		if keep != nil && !keep(row) {
			continue
		}
		sum += parsePercentCell(b, row[col])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable1 regenerates the Table 1 system-parameter listing.
func BenchmarkTable1(b *testing.B) {
	tbl := runExperiment(b, experiments.Table1)
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkTable2 regenerates Table 2 (applications and trace sizes).
func BenchmarkTable2(b *testing.B) {
	tbl := runExperiment(b, experiments.Table2)
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

// BenchmarkFig6 regenerates Figure 6 and reports the mean fraction of
// temporally correlated consumptions at distance ±8 for the scientific and
// commercial halves of the suite.
func BenchmarkFig6(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig6)
	isScientific := func(row []string) bool {
		return row[0] == "em3d" || row[0] == "moldyn" || row[0] == "ocean"
	}
	b.ReportMetric(averageColumn(b, tbl, 4, isScientific), "sci_corr_pct@8")
	b.ReportMetric(averageColumn(b, tbl, 4, func(r []string) bool { return !isScientific(r) }), "com_corr_pct@8")
}

// BenchmarkFig7 regenerates Figure 7 and reports the mean commercial discard
// rate with one and with two compared streams — the accuracy mechanism's
// headline effect.
func BenchmarkFig7(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig7)
	commercial := map[string]bool{"apache": true, "db2": true, "oracle": true, "zeus": true}
	discardsFor := func(streams string) float64 {
		return averageColumn(b, tbl, 3, func(row []string) bool {
			return commercial[row[0]] && row[1] == streams
		})
	}
	b.ReportMetric(discardsFor("1"), "com_discards_pct@1stream")
	b.ReportMetric(discardsFor("2"), "com_discards_pct@2streams")
}

// BenchmarkFig8 regenerates Figure 8 and reports the mean commercial discard
// rate at the smallest and largest lookahead.
func BenchmarkFig8(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig8)
	commercial := func(row []string) bool {
		return row[0] == "apache" || row[0] == "db2" || row[0] == "oracle" || row[0] == "zeus"
	}
	b.ReportMetric(averageColumn(b, tbl, 1, commercial), "com_discards_pct@la1")
	b.ReportMetric(averageColumn(b, tbl, len(tbl.Columns)-1, commercial), "com_discards_pct@la24")
}

// BenchmarkFig9 regenerates Figure 9 and reports mean coverage with a 512 B
// SVB and with an unlimited SVB.
func BenchmarkFig9(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig9)
	covFor := func(size string) float64 {
		return averageColumn(b, tbl, 2, func(row []string) bool { return row[1] == size })
	}
	b.ReportMetric(covFor("512B"), "coverage_pct@512B")
	b.ReportMetric(covFor("inf"), "coverage_pct@inf")
}

// BenchmarkFig10 regenerates Figure 10 and reports the mean fraction of peak
// coverage at the smallest and largest CMOB capacities.
func BenchmarkFig10(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig10)
	b.ReportMetric(averageColumn(b, tbl, 1, nil), "peakfrac_pct@192B")
	b.ReportMetric(averageColumn(b, tbl, len(tbl.Columns)-1, nil), "peakfrac_pct@3MB")
}

// BenchmarkFig11 regenerates Figure 11 and reports the mean interconnect
// overhead ratio.
func BenchmarkFig11(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig11)
	b.ReportMetric(averageColumn(b, tbl, 2, nil), "overhead_vs_base_pct")
}

// BenchmarkFig12 regenerates Figure 12 and reports mean coverage per
// technique across the suite.
func BenchmarkFig12(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig12)
	covFor := func(tech string) float64 {
		return averageColumn(b, tbl, 2, func(row []string) bool { return row[1] == tech })
	}
	b.ReportMetric(covFor("Stride"), "stride_coverage_pct")
	b.ReportMetric(covFor("GHB G/DC"), "ghb_gdc_coverage_pct")
	b.ReportMetric(covFor("GHB G/AC"), "ghb_gac_coverage_pct")
	b.ReportMetric(covFor("TSE"), "tse_coverage_pct")
}

// BenchmarkFig13 regenerates Figure 13 and reports the mean fraction of SVB
// hits from streams of at most 8 blocks for the commercial workloads.
func BenchmarkFig13(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig13)
	commercial := func(row []string) bool {
		return row[0] == "apache" || row[0] == "db2" || row[0] == "oracle" || row[0] == "zeus"
	}
	b.ReportMetric(averageColumn(b, tbl, 3, commercial), "com_hits_pct@len<=8")
}

// BenchmarkTable3 regenerates Table 3 and reports mean trace coverage and
// mean full (timely) coverage.
func BenchmarkTable3(b *testing.B) {
	tbl := runExperiment(b, experiments.Table3)
	b.ReportMetric(averageColumn(b, tbl, 1, nil), "trace_coverage_pct")
	b.ReportMetric(averageColumn(b, tbl, 4, nil), "full_coverage_pct")
}

// BenchmarkFig14 regenerates Figure 14 and reports the em3d and DB2 speedups
// (the paper's best scientific and best commercial results).
func BenchmarkFig14(b *testing.B) {
	tbl := runExperiment(b, experiments.Fig14)
	speedupOf := func(name string) float64 {
		for _, row := range tbl.Rows {
			if row[0] == name {
				v, err := strconv.ParseFloat(row[3], 64)
				if err != nil {
					b.Fatalf("bad speedup cell %q", row[3])
				}
				return v
			}
		}
		return 0
	}
	b.ReportMetric(speedupOf("em3d"), "em3d_speedup")
	b.ReportMetric(speedupOf("db2"), "db2_speedup")
}

// --- Ablation benchmarks -------------------------------------------------
//
// These vary the design choices DESIGN.md calls out, on the DB2 workload
// (the commercial workload TSE helps most), and report the resulting
// coverage/discard trade-off.

// ablationTrace prepares the DB2 trace and its timing profile once per
// benchmark iteration set.
func ablationData(b *testing.B) (*experiments.WorkloadData, *experiments.Workspace) {
	b.Helper()
	w := benchWorkspace()
	d, err := w.Data("db2")
	if err != nil {
		b.Fatal(err)
	}
	return d, w
}

func ablationConfig(w *experiments.Workspace, d *experiments.WorkloadData) tse.Config {
	cfg := w.System().DefaultTSE()
	cfg.Lookahead = d.Generator.Timing().Lookahead
	return cfg
}

// BenchmarkAblationComparedStreams sweeps the number of compared streams.
func BenchmarkAblationComparedStreams(b *testing.B) {
	for _, streams := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(streams), func(b *testing.B) {
			d, w := ablationData(b)
			var cov analysis.CoverageResult
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(w, d)
				cfg.ComparedStreams = streams
				cov, _ = analysis.EvaluateTSE(cfg, d.Trace)
			}
			b.ReportMetric(100*cov.Coverage(), "coverage_pct")
			b.ReportMetric(100*cov.DiscardRate(), "discards_pct")
		})
	}
}

// BenchmarkAblationLookahead sweeps the stream lookahead against the fixed
// Table 3 choice.
func BenchmarkAblationLookahead(b *testing.B) {
	for _, la := range []int{4, 8, 16, 24} {
		b.Run(strconv.Itoa(la), func(b *testing.B) {
			d, w := ablationData(b)
			var cov analysis.CoverageResult
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(w, d)
				cfg.Lookahead = la
				cov, _ = analysis.EvaluateTSE(cfg, d.Trace)
			}
			b.ReportMetric(100*cov.Coverage(), "coverage_pct")
			b.ReportMetric(100*cov.DiscardRate(), "discards_pct")
		})
	}
}

// BenchmarkAblationSVBReplacement compares LRU and FIFO SVB replacement.
func BenchmarkAblationSVBReplacement(b *testing.B) {
	for _, fifo := range []bool{false, true} {
		name := "LRU"
		if fifo {
			name = "FIFO"
		}
		b.Run(name, func(b *testing.B) {
			d, w := ablationData(b)
			var cov analysis.CoverageResult
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(w, d)
				cfg.SVBFIFOReplacement = fifo
				cov, _ = analysis.EvaluateTSE(cfg, d.Trace)
			}
			b.ReportMetric(100*cov.Coverage(), "coverage_pct")
			b.ReportMetric(100*cov.DiscardRate(), "discards_pct")
		})
	}
}

// BenchmarkAblationStreamOnSingle compares streaming immediately from a lone
// recorded history against waiting for a confirming second stream.
func BenchmarkAblationStreamOnSingle(b *testing.B) {
	for _, single := range []bool{true, false} {
		name := "stream"
		if !single {
			name = "wait"
		}
		b.Run(name, func(b *testing.B) {
			d, w := ablationData(b)
			var cov analysis.CoverageResult
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(w, d)
				cfg.StreamOnSingle = single
				cov, _ = analysis.EvaluateTSE(cfg, d.Trace)
			}
			b.ReportMetric(100*cov.Coverage(), "coverage_pct")
			b.ReportMetric(100*cov.DiscardRate(), "discards_pct")
		})
	}
}

// BenchmarkAblationCMOBPointers compares one directory CMOB pointer per
// entry against the default two.
func BenchmarkAblationCMOBPointers(b *testing.B) {
	for _, ptrs := range []int{1, 2} {
		b.Run(strconv.Itoa(ptrs), func(b *testing.B) {
			d, w := ablationData(b)
			var cov analysis.CoverageResult
			for i := 0; i < b.N; i++ {
				cfg := ablationConfig(w, d)
				cfg.ComparedStreams = ptrs
				cov, _ = analysis.EvaluateTSE(cfg, d.Trace)
			}
			b.ReportMetric(100*cov.Coverage(), "coverage_pct")
			b.ReportMetric(100*cov.DiscardRate(), "discards_pct")
		})
	}
}

// --- Streaming and parallelism benchmarks --------------------------------
//
// These measure the internal/stream subsystem: streamed versus materialized
// model evaluation, the binary codec, and parallel versus serial experiment
// batches over a shared Workspace.

// BenchmarkStreamedEvaluation compares evaluating one model over (a) the
// materialized in-memory trace, (b) a Source iterator over that trace, and
// (c) a decoded binary stream — the cross-process replay path — the last two
// through the same analysis.ModelConsumer the pipeline runs. All three
// produce identical results; the deltas are the iterator and codec costs.
func BenchmarkStreamedEvaluation(b *testing.B) {
	d, w := ablationData(b)
	nodes := w.Options().Nodes
	spec := analysis.BaselineSpecs(nodes)[2] // GHB G/AC, the busiest baseline
	var encoded bytes.Buffer
	enc, err := stream.NewWriter(&encoded, stream.Meta{Workload: "db2", Nodes: nodes, Scale: *benchScale, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stream.Copy(enc, stream.TraceSource(d.Trace)); err != nil {
		b.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := analysis.EvaluateModel(spec.New(), d.Trace)
			b.ReportMetric(100*res.Coverage(), "coverage_pct")
		}
	})
	b.Run("streamed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := analysis.NewModelConsumer(spec.New())
			if err := c.Run(stream.TraceSource(d.Trace)); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*c.Result.Coverage(), "coverage_pct")
		}
	})
	b.Run("streamed-codec", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			c := analysis.NewModelConsumer(spec.New())
			if err := c.Run(r); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*c.Result.Coverage(), "coverage_pct")
		}
	})
}

// BenchmarkCodec measures raw encode/decode throughput of the binary trace
// format.
func BenchmarkCodec(b *testing.B) {
	d, _ := ablationData(b)
	meta := stream.Meta{Workload: "db2", Nodes: 16, Scale: *benchScale, Seed: 1}
	var encoded bytes.Buffer
	w, err := stream.NewWriter(&encoded, meta)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := stream.Copy(w, stream.TraceSource(d.Trace)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	bytesPerEvent := float64(encoded.Len()) / float64(d.Trace.Len())
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			w, err := stream.NewWriter(&buf, meta)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stream.Copy(w, stream.TraceSource(d.Trace)); err != nil {
				b.Fatal(err)
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bytesPerEvent, "bytes/event")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stream.Collect(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bytesPerEvent, "bytes/event")
	})
}

// BenchmarkWorkspaceExperiments runs the full table/figure suite over a
// fresh shared Workspace, serially versus in parallel (parallel trace
// generation via Prefetch, then concurrent experiment drivers). The
// parallel path must win on a multi-core machine; the tables are identical.
func BenchmarkWorkspaceExperiments(b *testing.B) {
	exps := experiments.All()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := benchWorkspace()
			for _, exp := range exps {
				if _, err := exp.Run(w); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := benchWorkspace()
			if err := w.Prefetch(); err != nil {
				b.Fatal(err)
			}
			if _, err := experiments.RunAll(w, exps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTimingModel measures the raw cost of the DSM timing model on one
// workload trace (baseline and with TSE).
func BenchmarkTimingModel(b *testing.B) {
	d, w := ablationData(b)
	prof := d.Generator.Timing()
	cfg := ablationConfig(w, d)
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Simulate(d.Trace, timing.Params{
				System: w.System(), Profile: prof, Nodes: 16,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Simulate(d.Trace, timing.Params{
				System: w.System(), Profile: prof, Nodes: 16, TSE: &cfg,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Streamed-generation allocation benchmarks ----------------------------
//
// The constant-memory evidence for generation: Repeat lengthens the trace
// WITHOUT growing generator state, so B/op must stay flat as the trace gets
// longer (the only allocations are the generator's fixed problem state).
// CI publishes it in the BENCH JSON artifact and gates on its presence;
// TestStreamTraceHeapFlatAcrossRepeat pins the live-heap bound.

// benchGenConfig fixes the problem footprint; repeat scales only the length.
func benchGenConfig(repeat float64) workload.Config {
	return workload.Config{Nodes: 16, Seed: 1, Scale: 0.05, Repeat: repeat}
}

// BenchmarkGenerateStream drives a generator's Emit end to end, counting
// accesses but never buffering them. B/op is O(1) in the trace length.
func BenchmarkGenerateStream(b *testing.B) {
	spec, _ := workload.ByName("db2")
	for _, repeat := range []float64{1, 2, 4} {
		b.Run(fmt.Sprintf("repeat=%g", repeat), func(b *testing.B) {
			b.ReportAllocs()
			var accesses int
			for i := 0; i < b.N; i++ {
				accesses = 0
				gen := spec.New(benchGenConfig(repeat))
				if err := gen.Emit(func(a mem.Access) error {
					accesses++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(accesses), "accesses")
		})
	}
}

// --- Sweep / broadcast benchmarks -----------------------------------------
//
// BenchmarkSweep measures the N-consumer ring fan-out that whole-sensitivity
// sweeps ride, at sweep widths of 4/16/64 consumers. The "broadcast" group
// isolates the engine itself with drain-only consumers: with ReportAllocs it
// shows the ring allocating O(ring) — the fixed slot buffers, reused lap
// after lap, independent of both the consumer count and the trace length.
// The "tse" group is the realistic end: one full TSE model per cell riding
// the shared pass (analysis.Sweep).
func BenchmarkSweep(b *testing.B) {
	d, w := ablationData(b)
	for _, consumers := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("broadcast/ring/consumers=%d", consumers), func(b *testing.B) {
			b.ReportAllocs()
			events := d.Trace.Len()
			for i := 0; i < b.N; i++ {
				sinks := make([]pipeline.Consumer, consumers)
				for j := range sinks {
					sinks[j] = pipeline.ConsumerFunc(func(src stream.Source) error {
						for {
							if _, err := src.Next(); err != nil {
								if err == io.EOF {
									return nil
								}
								return err
							}
						}
					})
				}
				if err := pipeline.Run(stream.TraceSource(d.Trace), sinks...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events), "events")
			b.ReportMetric(float64(consumers), "consumers")
		})
	}

	// The realistic sweep: one TSE configuration per consumer (lookaheads
	// cycled), every cell evaluated over the single shared pass.
	for _, consumers := range []int{4, 16, 64} {
		lookaheads := []int{1, 2, 4, 8, 16, 24}
		cfgs := make([]tse.Config, consumers)
		for i := range cfgs {
			cfg := ablationConfig(w, d)
			cfg.Lookahead = lookaheads[i%len(lookaheads)]
			cfgs[i] = cfg
		}
		b.Run(fmt.Sprintf("tse/ring/consumers=%d", consumers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := analysis.Sweep(cfgs, stream.TraceSource(d.Trace))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res[0].Coverage.Coverage(), "coverage_pct")
			}
			b.ReportMetric(float64(consumers), "consumers")
		})
	}
}

// BenchmarkWorkloadGeneration measures raw workload generation plus
// coherence classification throughput for each workload.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for _, name := range workload.Names() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := experiments.NewWorkspace(experiments.Options{
					Nodes: 16, Scale: *benchScale, Seed: int64(i + 1), Workloads: []string{name},
				})
				d, err := w.Data(name)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(d.Consumptions), "consumptions")
			}
		})
	}
}

// BenchmarkFileReplay compares the materializing serial oracle (LoadTrace +
// EvaluateTSE) with the fused streamed engine (EvaluateTSEFileWith — ONE
// decode pass teed into all three consumers by internal/pipeline) and its
// decode variants. The reports are bit-identical; the fused path keeps the
// memory footprint independent of the trace length.
func BenchmarkFileReplay(b *testing.B) {
	opts := Options{Nodes: 16, Scale: *benchScale, Seed: 1}
	tr, gen, err := GenerateTrace("db2", opts)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/db2.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		b.Fatal(err)
	}
	b.Run("inmem", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, meta, err := LoadTrace(path)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := GeneratorFor(meta)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := EvaluateTSE(loaded, gen, OptionsFor(meta))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*rep.Coverage, "coverage_pct")
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := replayTSE(path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*rep.Coverage, "coverage_pct")
			b.ReportMetric(1, "decode_passes")
		}
	})
	// The fused path with the decode side itself parallelised over the v3
	// chunk index: still one decode pass, split across per-chunk workers.
	// Identical reports at any worker count; the delta is decode wall time.
	// decode_mevents_per_cpu_s is the decode side's own throughput (events
	// over worker busy time, from the stream.decode.* counters) — the number
	// the SoA batch decoder is gated on, isolated from consumer cost.
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("fused-decode%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMetrics()
				rep, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: workers}, Instrumentation{Metrics: m})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Coverage, "coverage_pct")
				b.ReportMetric(1, "decode_passes")
				b.ReportMetric(float64(workers), "decode_workers")
				reportDecodeThroughput(b, m)
			}
		})
	}
	// The fused path over an mmap'd file: the decode workers parse chunks
	// zero-copy from the mapped pages into SoA regions, and every consumer
	// sweeps the columns. Identical reports; this is the all-in hot path.
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("soa-mmap%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMetrics()
				rep, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: workers, Mmap: true}, Instrumentation{Metrics: m})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*rep.Coverage, "coverage_pct")
				b.ReportMetric(1, "decode_passes")
				b.ReportMetric(float64(workers), "decode_workers")
				reportDecodeThroughput(b, m)
			}
		})
	}
	// A whole sensitivity sweep over the file: every cell rides the same
	// single decode (lookahead sweep, 6 TSE consumers, ring broadcast).
	b.Run("sweep-lookahead", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cells, err := replaySweep(path, "lookahead")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(cells)), "cells")
			b.ReportMetric(1, "decode_passes")
		}
	})
	// The Figure 12 comparison fans out to four models over one decode.
	b.Run("compare-fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := replayAll(path); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(1, "decode_passes")
		}
	})
}

// BenchmarkParallelDecode isolates the decode side: drain a trace file
// through the indexed per-chunk worker pool at 1 and 4 workers, with
// allocation reporting — the free-list recycling must keep allocs/op
// O(workers·chunk), independent of how many chunks the file has (the CI
// bench gate greps these numbers).
func BenchmarkParallelDecode(b *testing.B) {
	opts := Options{Nodes: 16, Scale: *benchScale, Seed: 1}
	tr, gen, err := GenerateTrace("db2", opts)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/db2.tsm"
	if err := SaveTrace(path, tr, gen, opts); err != nil {
		b.Fatal(err)
	}
	drain := func(b *testing.B, src EventSource) uint64 {
		var n uint64
		for {
			_, err := src.Next()
			if err == io.EOF {
				return n
			}
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := stream.OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			n := drain(b, f)
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(n), "events")
		}
	})
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := stream.OpenFileParallel(path, stream.ParallelOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				n := drain(b, f)
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n), "events")
				b.ReportMetric(float64(workers), "decode_workers")
			}
		})
	}
	// The same indexed decode drained as struct-of-arrays columns
	// (NextChunkSoA) instead of one Next call per event — how the pipeline
	// and the columnar consumers actually consume the decoder.
	drainSoA := func(b *testing.B, src stream.SoASource) uint64 {
		var n uint64
		for {
			ch, err := src.NextChunkSoA()
			if err == io.EOF {
				return n
			}
			if err != nil {
				b.Fatal(err)
			}
			n += uint64(ch.Len())
		}
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("soa%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := stream.OpenFileParallel(path, stream.ParallelOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				n := drainSoA(b, f)
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n), "events")
				b.ReportMetric(float64(workers), "decode_workers")
			}
		})
	}
	// The indexed decode over an mmap'd file: zero-copy chunk regions, no
	// per-chunk read syscall. Falls back to ReadAt where mmap is unsupported.
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("mmap%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := stream.OpenFileParallel(path, stream.ParallelOptions{Workers: workers, Mmap: true})
				if err != nil {
					b.Fatal(err)
				}
				n := drainSoA(b, f)
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n), "events")
				b.ReportMetric(float64(workers), "decode_workers")
			}
		})
	}
}

// reportDecodeThroughput derives the decode side's own throughput from the
// stream.decode.* counters a replay collected: million events decoded per
// second of decode-worker busy time.
func reportDecodeThroughput(b *testing.B, m *Metrics) {
	b.Helper()
	s := m.Snapshot()
	events := s.Counters["stream.decode.events"]
	var busyNs uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "stream.decode.worker.") && strings.HasSuffix(name, ".busy_ns") {
			busyNs += v
		}
	}
	if busyNs > 0 {
		b.ReportMetric(float64(events)*1e3/float64(busyNs), "decode_mevents_per_cpu_s")
	}
}
