// Command tracegen generates the consumption/write event trace of one
// synthetic workload. With -o it streams the events straight into a
// versioned binary trace file (.tsm, see internal/stream) as the functional
// coherence engine classifies them, embedding the generation metadata so
// cmd/tsesim (or any other process) can evaluate the exact same trace with
// `tsesim -i`.
//
// Generation has one path, and it streams one access at a time: the
// generator's Emit feeds the coherence engine (infinite private caches, so
// every miss is a cold or coherence miss), the engine's events feed the
// file, and no slice of accesses or events ever exists. Memory is bounded by
// the workload's fixed problem state, not the trace length, which is what
// makes paper-scale traces (-preset paper, or explicit -scale/-repeat)
// practical.
//
// -nodes must lie in [1, 64] and -scale/-repeat must be finite and
// non-negative (0 selects the default of 1); other values exit 2 before any
// output file is created.
//
// Usage:
//
//	tracegen -workload db2 -scale 0.5 -o db2.tsm
//	tracegen -workload db2 -preset paper -o db2-full.tsm   # Table 2 footprint
//	tracegen -workload db2 -preset paper -o db2.tsm -progress -metrics m.json
//	tracegen -workload mix -o mix.tsm                      # memkv+cdn colocated
//	tracegen -workload em3d -summary
//
// -progress prints periodic events/sec lines to stderr during generation
// (paper-scale traces take minutes and otherwise run silent); -metrics
// dumps the generation counters (accesses, events, wall time) as JSON.
// CPU profiles come from `go test -cpuprofile`, not from a flag here.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit (argument list, output
// streams, exit code as the return value) so the CLI's behaviour — flag
// errors, unwritable outputs — is testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "db2", "workload name (see tsesim -list)")
		nodes      = fs.Int("nodes", 16, "number of DSM nodes, in [1, 64]")
		scale      = fs.Float64("scale", 1.0, "workload scale factor (data-structure footprint)")
		repeat     = fs.Float64("repeat", 1.0, "run-length multiplier (iterations/transactions; lengthens the trace at constant memory)")
		preset     = fs.String("preset", "", "problem-size preset: \"paper\" selects the workload's Table 2 footprint (explicit -scale/-repeat override it)")
		seed       = fs.Int64("seed", 1, "generation seed")
		out        = fs.String("o", "", "output trace file (.tsm; omit to skip writing)")
		summary    = fs.Bool("summary", true, "print a trace summary")
		metricsOut = fs.String("metrics", "", "write generation counters (JSON) to this file after the run")
		progress   = fs.Bool("progress", false, "print periodic events/sec lines to stderr during generation")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "tracegen: unknown workload %q\n", *name)
		return 2
	}

	cfg := workload.Config{Nodes: *nodes, Seed: *seed, Scale: *scale, Repeat: *repeat}
	switch *preset {
	case "":
	case "paper":
		p, ok := workload.PaperPreset(spec.Name)
		if !ok {
			fmt.Fprintf(stderr, "tracegen: no paper preset for workload %q\n", spec.Name)
			return 2
		}
		// Explicitly set flags win over the preset.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["scale"] {
			cfg.Scale = p.Scale
		}
		if !set["repeat"] {
			cfg.Repeat = p.Repeat
		}
	default:
		fmt.Fprintf(stderr, "tracegen: unknown preset %q (known: paper)\n", *preset)
		return 2
	}

	if *nodes < 1 || *nodes > mem.MaxNodes {
		fmt.Fprintf(stderr, "tracegen: -nodes %d outside [1, %d]\n", *nodes, mem.MaxNodes)
		return 2
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"scale", cfg.Scale}, {"repeat", cfg.Repeat}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			fmt.Fprintf(stderr, "tracegen: -%s %v must be finite and non-negative\n", f.name, f.v)
			return 2
		}
	}

	// Fail on an unwritable output path before generating anything: a typo'd
	// -o or -metrics must cost milliseconds, not a full paper-scale run.
	for _, path := range []string{*out, *metricsOut} {
		if path == "" {
			continue
		}
		if err := obs.CheckWritable(path); err != nil {
			fmt.Fprintf(stderr, "tracegen: %v\n", err)
			return 1
		}
	}
	reg := obs.NewRegistry()
	eventCount := reg.Counter("tracegen.events")
	var meter *obs.Progress
	if *progress {
		meter = obs.StartProgress(obs.ProgressConfig{
			W:      stderr,
			Label:  "generate " + spec.Name,
			Events: eventCount,
		})
	}

	gen := spec.New(cfg)
	eng := coherence.New(coherence.Config{Nodes: *nodes, Geometry: mem.DefaultGeometry()})

	// The access source streams straight from the generator, counting the
	// accesses on the way past for the summary.
	var accesses uint64
	src := func(yield func(mem.Access) error) error {
		return gen.Emit(func(a mem.Access) error {
			accesses++
			return yield(a)
		})
	}

	// The summary's per-node distribution is accumulated on the fly, so the
	// trace streams from the engine to the file without materializing. The
	// progress meter watches the shared counter (atomic — the meter reads it
	// from its own goroutine).
	var events uint64
	perNode := make([]int, *nodes)
	observe := func(e trace.Event) {
		events++
		eventCount.Inc()
		if e.Kind == trace.KindConsumption && e.Node >= 0 && int(e.Node) < len(perNode) {
			perNode[e.Node]++
		}
	}

	start := time.Now()
	var runErr error
	if *out != "" {
		meta := stream.Meta{Workload: spec.Name, Nodes: *nodes, Scale: cfg.Scale, Seed: *seed, Repeat: cfg.Repeat}
		runErr = writeStreamed(*out, meta, eng, src, observe)
	} else {
		runErr = eng.RunSource(src, func(e trace.Event) error { observe(e); return nil })
	}
	meter.Stop()
	if runErr != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", runErr)
		return 1
	}
	reg.Counter("tracegen.accesses").Add(accesses)
	reg.Counter("tracegen.wall_ns").Add(uint64(time.Since(start)))
	if *metricsOut != "" {
		if err := reg.WriteFile(*metricsOut); err != nil {
			fmt.Fprintf(stderr, "tracegen: %v\n", err)
			return 1
		}
	}

	if *summary {
		printSummary(stdout, spec, gen, cfg, accesses, events, perNode, eng)
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %d events to %s\n", events, *out)
	}
	return 0
}

// writeStreamed pipes the engine's event stream into a trace file, feeding
// each event to observe on the way past.
func writeStreamed(path string, meta stream.Meta, eng *coherence.Engine, src coherence.AccessSource, observe func(trace.Event)) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = stream.CloseMerge(f, err) }()
	w, err := stream.NewWriter(f, meta)
	if err != nil {
		return err
	}
	if err := eng.RunSource(src, func(e trace.Event) error {
		observe(e)
		return w.Write(e)
	}); err != nil {
		return err
	}
	return w.Close()
}

func printSummary(stdout io.Writer, spec workload.Spec, gen workload.Generator, cfg workload.Config, accesses, events uint64, perNode []int, eng *coherence.Engine) {
	stats := eng.Stats()
	fmt.Fprintf(stdout, "workload:      %s (%s)\n", spec.Name, spec.Class)
	fmt.Fprintf(stdout, "parameters:    %s\n", spec.Parameters)
	fmt.Fprintf(stdout, "problem size:  scale=%g repeat=%g\n", cfg.Scale, cfg.Repeat)
	fmt.Fprintf(stdout, "accesses:      %d\n", accesses)
	fmt.Fprintf(stdout, "trace events:  %d\n", events)
	fmt.Fprintf(stdout, "consumptions:  %d\n", stats.Consumptions)
	fmt.Fprintf(stdout, "spin misses:   %d (excluded)\n", stats.SpinMisses)
	fmt.Fprintf(stdout, "private misses:%d\n", stats.PrivateMisses)
	fmt.Fprintf(stdout, "write misses:  %d\n", stats.WriteMisses)
	prof := gen.Timing()
	fmt.Fprintf(stdout, "timing profile: busy=%.2f other=%.2f coherent=%.2f MLP=%.1f lookahead=%d\n",
		prof.BusyFraction, prof.OtherStallFraction, prof.CoherentStallFraction, prof.MLP, prof.Lookahead)

	counts := append([]int(nil), perNode...)
	sort.Ints(counts)
	if len(counts) > 0 {
		fmt.Fprintf(stdout, "consumptions per node: min=%d median=%d max=%d\n",
			counts[0], counts[len(counts)/2], counts[len(counts)-1])
	}
}
