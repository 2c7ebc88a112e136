// Command tsesim regenerates the paper's tables and figures on the synthetic
// workload suite, or replays a trace file produced by cmd/tracegen.
//
// Usage:
//
//	tsesim -experiment fig12                 # one experiment, all workloads
//	tsesim -experiment all -scale 0.25       # every table and figure, faster
//	tsesim -experiment suite -workloads memkv,pagerank,cdn
//	tsesim -experiment mix                   # cross-workload mix vs its parts
//	tsesim -experiment fig14 -workloads db2,oracle
//	tsesim -i db2.tsm                        # evaluate TSE on a trace file
//	tsesim -i db2.tsm -compare               # ...all Figure 12 models
//	tsesim -i db2.tsm -sweep lookahead       # whole sensitivity sweep, one decode
//	tsesim -i db2.tsm -decode-workers 4      # parallel per-chunk decode
//	tsesim -i db2.tsm -mmap                  # decode straight from mapped pages
//	tsesim -i db2.tsm -from 500000 -to 900000  # replay an event sub-range via the index
//	tsesim -i db2.tsm -metrics m.json -trace t.json -progress
//	tsesim -list                             # list experiments and workloads
//
// With -i the evaluation uses the generation metadata embedded in the trace
// file, so the report is identical to evaluating the trace in the process
// that generated it. Replay streams the file through the full TSE + timing
// pipeline in bounded memory — the trace is never materialized, so files of
// any size replay in constant space — and by default the file is decoded
// exactly ONCE: the single decode pass is teed into every consumer by the
// fan-out engine in internal/pipeline. -inmem runs the serial in-memory
// oracle instead — load the trace, then evaluate each model in turn — and
// the reports are bit-identical in both modes. -sweep runs an
// entire named sensitivity study (streams|lookahead|svb — the Figure 7/8/9
// sweeps) with every cell riding that same single decode through the ring
// fan-out, so a whole sweep costs one codec pass instead of one per cell.
// Trace files carry a chunk index. By default each chunk is decoded inline
// on the replay's producer goroutine; -decode-workers N decodes the file with
// N parallel per-chunk workers (identical reports; -1 picks one worker per
// core), -mmap maps the file and parses chunks directly from the mapped
// pages (no per-chunk read syscall or copy; quietly degrades to read() on
// platforms without mmap), and -from/-to replay only the events with
// sequence numbers in [from, to) without decoding the prefix. Files written
// by an older codec version fail with "unsupported trace version".
// Batches of experiments run in parallel over a shared workspace (each
// workload's trace is generated exactly once); -serial restores the
// one-at-a-time path.
//
// -nodes must lie in [1, 64] and -scale must be finite and non-negative (0
// selects the default of 1); other values exit 2 before any work.
//
// Observability (all opt-in, stdout reports stay byte-identical):
//
//	-metrics out.json  dump the engine's metrics registry — events/chunks
//	                   decoded, ring occupancy, per-consumer throughput, lag
//	                   and stall time, backpressure wait histograms — as JSON
//	-trace out.json    dump per-stage spans (decode pass, per-chunk decodes,
//	                   one lane per consumer) in the Chrome trace-event
//	                   format; load at chrome://tracing or ui.perfetto.dev
//	-progress          periodic events/sec (and, with -i, percent + ETA)
//	                   lines on stderr during long runs
//	-series out.json   with -i: dump per-consumer time-series of live
//	                   cumulative state (coverage, SVB/CMOB occupancy,
//	                   per-epoch latency quantiles), sampled at chunk
//	                   boundaries, as JSON; the interval auto-sizes from the
//	                   trace's indexed event count
//	-manifest out.json with -i: dump a run manifest — trace SHA-256, codec
//	                   version, chunk/event counts, workload metadata, replay
//	                   settings, per-stage wall times and (with -metrics) the
//	                   final metrics snapshot — as JSON
//	-pprof addr        serve net/http/pprof on addr for the duration of the
//	                   run, plus GET /metrics for a live JSON registry
//	                   snapshot
//
// The output of each experiment is a plain-text table whose rows mirror the
// corresponding table or figure in the paper; the golden tables in
// internal/experiments/testdata/*.golden record a reference run.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"tsm"
	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit (argument list, output
// streams, exit code as the return value) so the CLI's behaviour — flag
// errors, missing input files, unwritable outputs — is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experimentID  = fs.String("experiment", "all", "experiment id (fig6..fig14, table1..table3, suite) or \"all\"")
		workloads     = fs.String("workloads", "", "comma-separated workload subset (default: every registered workload)")
		nodes         = fs.Int("nodes", 16, "number of DSM nodes for experiments, in [1, 64]")
		scale         = fs.Float64("scale", 1.0, "workload scale factor")
		seed          = fs.Int64("seed", 1, "workload generation seed")
		input         = fs.String("i", "", "evaluate a trace file written by tracegen -o instead of running experiments")
		compare       = fs.Bool("compare", false, "with -i: evaluate all Figure 12 models, not just TSE")
		sweep         = fs.String("sweep", "", "with -i: run a named TSE sensitivity sweep (streams|lookahead|svb) over ONE decode of the file")
		inmem         = fs.Bool("inmem", false, "with -i: materialize the trace and evaluate each model serially instead of streaming it (same reports)")
		decodeWorkers = fs.Int("decode-workers", 0, "with -i: parallel per-chunk decode workers over the chunk index (0 = inline, -1 = one per core)")
		fromEvent     = fs.Uint64("from", 0, "with -i: replay from this event sequence number (inclusive; needs a v3 indexed file)")
		toEvent       = fs.Uint64("to", 0, "with -i: replay up to this event sequence number (exclusive; 0 = end of trace)")
		mmapFile      = fs.Bool("mmap", false, "with -i: mmap the trace file and decode chunks from the mapped pages (implies the indexed path; falls back to read() where unsupported)")
		serial        = fs.Bool("serial", false, "run experiments one at a time instead of in parallel")
		list          = fs.Bool("list", false, "list available experiments and workloads, then exit")
		quiet         = fs.Bool("quiet", false, "suppress progress messages")
		metricsOut    = fs.String("metrics", "", "write an engine metrics snapshot (JSON) to this file after the run")
		traceOut      = fs.String("trace", "", "write per-stage spans (Chrome trace-event JSON) to this file after the run")
		seriesOut     = fs.String("series", "", "with -i: write per-consumer time-series of live cumulative state (JSON) to this file after the run")
		manifestOut   = fs.String("manifest", "", "with -i: write a run manifest (trace provenance, stage wall times, final metrics; JSON) to this file after the run")
		progress      = fs.Bool("progress", false, "print periodic throughput/ETA lines to stderr during the run")
		pprofAddr     = fs.String("pprof", "", "serve net/http/pprof (plus /metrics) on this address for the duration of the run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *nodes < 1 || *nodes > mem.MaxNodes {
		fmt.Fprintf(stderr, "tsesim: -nodes %d outside [1, %d]\n", *nodes, mem.MaxNodes)
		return 2
	}
	if *scale < 0 || math.IsNaN(*scale) || math.IsInf(*scale, 0) {
		fmt.Fprintf(stderr, "tsesim: -scale %v must be finite and non-negative\n", *scale)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "workloads:")
		for _, s := range workload.Registry() {
			fmt.Fprintf(stdout, "  %-8s %-11s %s\n", s.Name, s.Class.String(), s.Parameters)
		}
		return 0
	}

	// Observability attachments. The metrics registry exists whenever any
	// sink needs it (-metrics, or the /metrics endpoint of -pprof); the
	// writability of the output paths is validated before the run, so a
	// typo'd path fails in milliseconds, not after minutes of replay.
	var ins tsm.Instrumentation
	if *metricsOut != "" || *pprofAddr != "" {
		ins.Metrics = tsm.NewMetrics()
	}
	if *traceOut != "" {
		ins.Tracer = tsm.NewTracer()
	}
	if *progress {
		ins.Progress = stderr
	}
	if *seriesOut != "" || *manifestOut != "" {
		if *input == "" {
			fmt.Fprintln(stderr, "tsesim: -series and -manifest record trace-file replay and need -i")
			return 2
		}
		if *inmem {
			fmt.Fprintln(stderr, "tsesim: -series and -manifest ride the fused streamed path and cannot combine with -inmem")
			return 2
		}
		if *seriesOut != "" {
			ins.Series = tsm.NewSeriesSet()
		}
		if *manifestOut != "" {
			ins.Manifest = tsm.NewRunManifest()
			ins.Manifest.SetCommand(append([]string{"tsesim"}, args...))
		}
	}
	for _, out := range []string{*metricsOut, *traceOut, *seriesOut, *manifestOut} {
		if out == "" {
			continue
		}
		if err := checkWritable(out); err != nil {
			fmt.Fprintf(stderr, "tsesim: %v\n", err)
			return 1
		}
	}
	if *pprofAddr != "" {
		shutdown, err := servePprof(*pprofAddr, ins.Metrics)
		if err != nil {
			fmt.Fprintf(stderr, "tsesim: %v\n", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stderr, "tsesim: pprof+metrics listening on %s\n", *pprofAddr)
		}
		defer shutdown()
	}
	// Dump the observability artifacts on every exit path once the run has
	// started — a failed replay still leaves the counters collected so far.
	dump := func() int {
		if *metricsOut != "" {
			if err := ins.Metrics.WriteFile(*metricsOut); err != nil {
				fmt.Fprintf(stderr, "tsesim: %v\n", err)
				return 1
			}
		}
		if *traceOut != "" {
			if err := ins.Tracer.WriteFile(*traceOut); err != nil {
				fmt.Fprintf(stderr, "tsesim: %v\n", err)
				return 1
			}
		}
		if *seriesOut != "" {
			if err := ins.Series.WriteFile(*seriesOut); err != nil {
				fmt.Fprintf(stderr, "tsesim: %v\n", err)
				return 1
			}
		}
		if *manifestOut != "" {
			if err := ins.Manifest.WriteFile(*manifestOut); err != nil {
				fmt.Fprintf(stderr, "tsesim: %v\n", err)
				return 1
			}
		}
		return 0
	}

	rc := tsm.ReplayConfig{DecodeWorkers: *decodeWorkers, From: *fromEvent, To: *toEvent, Mmap: *mmapFile}
	rcSet := rc.DecodeWorkers != 0 || rc.From != 0 || rc.To != 0 || rc.Mmap
	if rcSet && *input == "" {
		fmt.Fprintln(stderr, "tsesim: -decode-workers, -from, -to and -mmap configure trace-file replay and need -i")
		return 2
	}

	if *input != "" {
		if rcSet && *inmem {
			fmt.Fprintln(stderr, "tsesim: -decode-workers, -from, -to and -mmap ride the fused streamed path and cannot combine with -inmem")
			return 2
		}
		if rc.To != 0 && rc.To <= rc.From {
			fmt.Fprintf(stderr, "tsesim: invalid event range [%d, %d): -to must exceed -from\n", rc.From, rc.To)
			return 2
		}
		if *sweep != "" {
			if *compare || *inmem {
				fmt.Fprintln(stderr, "tsesim: -sweep runs on the fused single-decode path and cannot combine with -compare or -inmem")
				return 2
			}
			if err := sweepTrace(stdout, *input, *sweep, *quiet, rc, ins); err != nil {
				fmt.Fprintf(stderr, "tsesim: %v\n", err)
				dump()
				return 1
			}
			return dump()
		}
		if err := replayTrace(stdout, *input, *compare, *inmem, *quiet, rc, ins); err != nil {
			fmt.Fprintf(stderr, "tsesim: %v\n", err)
			dump()
			return 1
		}
		return dump()
	}

	opts := experiments.Options{Nodes: *nodes, Scale: *scale, Seed: *seed}
	if *workloads != "" {
		for _, name := range strings.Split(*workloads, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if name == "" {
				continue
			}
			if _, ok := workload.ByName(name); !ok {
				fmt.Fprintf(stderr, "tsesim: unknown workload %q (known: %s)\n",
					name, strings.Join(workload.AllNames(), ", "))
				return 2
			}
			opts.Workloads = append(opts.Workloads, name)
		}
	}

	var selected []experiments.Experiment
	if strings.EqualFold(*experimentID, "all") {
		selected = experiments.All()
	} else {
		exp, ok := experiments.ByID(*experimentID)
		if !ok {
			fmt.Fprintf(stderr, "tsesim: unknown experiment %q (known: %s)\n",
				*experimentID, strings.Join(experiments.IDs(), ", "))
			return 2
		}
		selected = []experiments.Experiment{exp}
	}

	w := experiments.NewWorkspace(opts)
	// Every figure's one-walk sweep batch reports per-cell consumer
	// throughput through the attached registry/tracer.
	w.Observe(ins.Metrics, ins.Tracer)
	if !*serial && len(selected) > 1 {
		start := time.Now()
		tables, err := experiments.RunAll(w, selected)
		if err != nil {
			fmt.Fprintf(stderr, "tsesim: %v\n", err)
			dump()
			return 1
		}
		for _, tbl := range tables {
			fmt.Fprintln(stdout, tbl.String())
		}
		if !*quiet {
			fmt.Fprintf(stdout, "(%d experiments completed in parallel in %v)\n",
				len(tables), time.Since(start).Round(time.Millisecond))
		}
		return dump()
	}
	for _, exp := range selected {
		start := time.Now()
		tbl, err := exp.Run(w)
		if err != nil {
			fmt.Fprintf(stderr, "tsesim: %s failed: %v\n", exp.ID, err)
			dump()
			return 1
		}
		fmt.Fprintln(stdout, tbl.String())
		if !*quiet {
			fmt.Fprintf(stdout, "(%s completed in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return dump()
}

// sweepTrace runs one named TSE sensitivity sweep over a trace file: every
// cell of the sweep is a concurrent consumer of a SINGLE decode pass through
// the ring fan-out engine, so the whole study costs one codec pass and
// bounded memory however wide the sweep is. The per-cell reports are
// bit-identical to evaluating each configuration on its own.
func sweepTrace(stdout io.Writer, path, sweep string, quiet bool, rc tsm.ReplayConfig, ins tsm.Instrumentation) error {
	start := time.Now()
	meta, err := tsm.ReplayMeta(path)
	if err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(stdout, "trace: %s (sweep %s, fused single decode%s)\n", meta, sweep, replayModeSuffix(rc))
	}
	cells, err := tsm.EvaluateTSESweepFileWith(path, sweep, rc, ins)
	if err != nil {
		return err
	}
	for _, c := range cells {
		fmt.Fprintln(stdout, c)
	}
	if !quiet {
		fmt.Fprintf(stdout, "(%d-cell sweep completed in %v, one decode pass)\n", len(cells), time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// replayTrace evaluates a trace file through the public facade, using the
// embedded metadata to rebuild the generator, so the reports match the
// generating process bit for bit. The default path streams the file through
// the full TSE + timing pipeline in bounded memory with exactly one decode
// pass teed into every consumer; inmem materializes the trace first and runs
// the serial oracle (identical reports, memory proportional to the trace,
// no instrumentation).
func replayTrace(stdout io.Writer, path string, compare, inmem, quiet bool, rc tsm.ReplayConfig, ins tsm.Instrumentation) error {
	start := time.Now()
	mode := "streamed, fused single decode" + replayModeSuffix(rc)
	if inmem {
		mode = "in-memory"
	}
	var reports []tsm.Report
	if inmem {
		tr, meta, err := tsm.LoadTrace(path)
		if err != nil {
			return err
		}
		gen, err := tsm.GeneratorFor(meta)
		if err != nil {
			return err
		}
		opts := tsm.OptionsFor(meta)
		if !quiet {
			fmt.Fprintf(stdout, "trace: %s (%d events, %d consumptions, %s)\n", meta, tr.Len(), tr.ConsumptionCount(), mode)
		}
		if compare {
			reports, err = tsm.ComparePrefetchers(tr, gen, opts)
		} else {
			var rep tsm.Report
			rep, err = tsm.EvaluateTSE(tr, gen, opts)
			reports = []tsm.Report{rep}
		}
		if err != nil {
			return err
		}
	} else {
		meta, err := tsm.ReplayMeta(path)
		if err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintf(stdout, "trace: %s (%s)\n", meta, mode)
		}
		if compare {
			reports, err = tsm.EvaluateAllFileWith(path, rc, ins)
		} else {
			var rep tsm.Report
			rep, err = tsm.EvaluateTSEFileWith(path, rc, ins)
			reports = []tsm.Report{rep}
		}
		if err != nil {
			return err
		}
	}
	for _, r := range reports {
		fmt.Fprintln(stdout, r)
	}
	if !quiet {
		fmt.Fprintf(stdout, "(replay completed in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// replayModeSuffix renders the replay-config part of the mode banner:
// decode-worker count, mmap, and event range, when set.
func replayModeSuffix(rc tsm.ReplayConfig) string {
	var sb strings.Builder
	if rc.DecodeWorkers != 0 {
		fmt.Fprintf(&sb, ", decode-workers=%d", rc.DecodeWorkers)
	}
	if rc.Mmap {
		sb.WriteString(", mmap")
	}
	if rc.From != 0 || rc.To != 0 {
		if rc.To != 0 {
			fmt.Fprintf(&sb, ", events [%d, %d)", rc.From, rc.To)
		} else {
			fmt.Fprintf(&sb, ", events [%d, end)", rc.From)
		}
	}
	return sb.String()
}
