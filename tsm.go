// Package tsm is the public facade of the Temporal Streaming of Shared
// Memory reproduction. It wraps the internal packages — workload generation,
// the functional coherence engine, the Temporal Streaming Engine (TSE), the
// baseline prefetchers, the trace analyses and the DSM timing model — behind
// a small API suitable for the runnable examples and for downstream users
// who want to evaluate temporal streaming on their own consumption traces.
//
// The typical flow is:
//
//	trace, gen, err := tsm.GenerateTrace("db2", tsm.Options{Nodes: 16, Scale: 0.25})
//	report, err := tsm.EvaluateTSE(trace, gen, tsm.Options{Nodes: 16})
//	fmt.Println(report)
//
// or, to regenerate one of the paper's tables or figures directly:
//
//	table, err := tsm.RunExperiment("fig12", tsm.Options{Scale: 0.25})
//	fmt.Println(table)
package tsm

import (
	"fmt"
	"math"
	"strings"

	"tsm/internal/analysis"
	"tsm/internal/coherence"
	"tsm/internal/config"
	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// Options control workload generation and model evaluation.
type Options struct {
	// Nodes is the number of DSM nodes (default 16, as in the paper).
	Nodes int
	// Scale scales the synthetic problem sizes (default 1.0).
	Scale float64
	// Repeat multiplies the workload run length — iterations, transactions,
	// requests — without growing the generator's data-structure state
	// (default 1.0). With streamed generation this lengthens traces at
	// constant memory; see workload.PaperPreset for the paper-scale
	// combinations of Scale and Repeat.
	Repeat float64
	// Seed makes generation deterministic (default 1).
	Seed int64
	// Lookahead overrides the per-workload stream lookahead (0 = use the
	// workload's Table 3 value).
	Lookahead int
}

func (o Options) normalize() Options {
	if o.Nodes <= 0 {
		o.Nodes = 16
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Repeat <= 0 {
		o.Repeat = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate rejects structurally invalid options with an explicit error.
// Zero values are "use the default" and remain valid; negative values are
// almost always a caller bug (a subtraction gone wrong, a misparsed flag)
// and are reported instead of being silently normalized away.
func (o Options) Validate() error {
	if o.Nodes < 0 {
		return fmt.Errorf("tsm: Options.Nodes is negative (%d); use 0 for the default of 16", o.Nodes)
	}
	if o.Nodes > mem.MaxNodes {
		return fmt.Errorf("tsm: Options.Nodes %d exceeds the %d-node maximum", o.Nodes, mem.MaxNodes)
	}
	if o.Scale < 0 {
		return fmt.Errorf("tsm: Options.Scale is negative (%g); use 0 for the default of 1.0", o.Scale)
	}
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("tsm: Options.Scale is not finite (%v)", o.Scale)
	}
	if o.Repeat < 0 {
		return fmt.Errorf("tsm: Options.Repeat is negative (%g); use 0 for the default of 1.0", o.Repeat)
	}
	if math.IsNaN(o.Repeat) || math.IsInf(o.Repeat, 0) {
		return fmt.Errorf("tsm: Options.Repeat is not finite (%v)", o.Repeat)
	}
	if o.Lookahead < 0 {
		return fmt.Errorf("tsm: Options.Lookahead is negative (%d); use 0 for the workload's Table 3 value", o.Lookahead)
	}
	return nil
}

// checked validates and then normalizes, the entry gate of every facade
// function that can report errors.
func (o Options) checked() (Options, error) {
	if err := o.Validate(); err != nil {
		return o, err
	}
	return o.normalize(), nil
}

// Trace is a globally ordered consumption/write event stream.
type Trace = trace.Trace

// Generator produces workload access streams; it also carries the
// workload's timing profile.
type Generator = workload.Generator

// Event is one classified trace event (a consumption or a write), the unit
// every EventSource yields and every EventSink accepts.
type Event = trace.Event

// EventSource is a pull-based event iterator (io.EOF ends the stream).
type EventSource = stream.Source

// EventSink consumes events one at a time; Close finalises it.
type EventSink = stream.Sink

// TraceMeta records how a saved trace was generated, so a separate process
// can rebuild the matching generator and options.
type TraceMeta = stream.Meta

// newGenerator builds the named workload's generator at the given
// (normalized) options.
func newGenerator(name string, opts Options) (Generator, error) {
	spec, ok := workload.ByName(strings.ToLower(name))
	if !ok {
		return nil, fmt.Errorf("tsm: unknown workload %q (known: %s)", name, strings.Join(workload.AllNames(), ", "))
	}
	return spec.New(workload.Config{Nodes: opts.Nodes, Seed: opts.Seed, Scale: opts.Scale, Repeat: opts.Repeat}), nil
}

// StreamTrace builds the named workload and streams the classified trace
// events into sink as the functional coherence engine produces them. Neither
// the access stream nor the trace is ever materialized — the generator's
// Emit feeds the engine one access at a time and each classified event goes
// straight to the sink — so arbitrarily large workloads stream in constant
// memory end to end. It returns the generator (for timing profiles) and the
// number of events emitted. The sink is not closed.
func StreamTrace(name string, opts Options, sink EventSink) (Generator, uint64, error) {
	opts, err := opts.checked()
	if err != nil {
		return nil, 0, err
	}
	gen, err := newGenerator(name, opts)
	if err != nil {
		return nil, 0, err
	}
	eng := coherence.New(coherence.Config{Nodes: opts.Nodes, Geometry: config.DefaultSystem().Geometry})
	var n uint64
	err = eng.RunSource(gen.Emit, func(e trace.Event) error {
		if err := sink.Write(e); err != nil {
			return err
		}
		n++
		return nil
	})
	if err != nil {
		return gen, n, fmt.Errorf("tsm: streaming %s trace: %w", name, err)
	}
	return gen, n, nil
}

// traceMeta derives the file metadata for a generated trace.
func traceMeta(gen Generator, opts Options) TraceMeta {
	return TraceMeta{Workload: strings.ToLower(gen.Name()), Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed, Repeat: opts.Repeat}
}

// SaveTrace writes a trace to path in the versioned binary stream format
// (see internal/stream), embedding the generation metadata so LoadTrace and
// cmd/tsesim can evaluate it in another process.
func SaveTrace(path string, tr *Trace, gen Generator, opts Options) error {
	opts, err := opts.checked()
	if err != nil {
		return err
	}
	if tr == nil || gen == nil {
		return fmt.Errorf("tsm: SaveTrace requires a trace and a generator")
	}
	_, err = stream.WriteFile(path, traceMeta(gen, opts), stream.TraceSource(tr))
	return err
}

// LoadTrace reads a trace file written by SaveTrace or cmd/tracegen and
// returns the events together with the embedded generation metadata.
func LoadTrace(path string) (*Trace, TraceMeta, error) {
	return stream.LoadFile(path)
}

// GeneratorFor reconstructs the workload generator a trace file's metadata
// describes. Generation is not re-run; the generator is only needed for its
// timing profile (and per-workload lookahead).
func GeneratorFor(meta TraceMeta) (Generator, error) {
	spec, err := specFor(meta)
	if err != nil {
		return nil, err
	}
	return spec.New(workload.Config{Nodes: meta.Nodes, Seed: meta.Seed, Scale: meta.Scale, Repeat: meta.Repeat}), nil
}

// specFor looks up the registry entry of the workload a trace file's
// metadata names, without building its generator.
func specFor(meta TraceMeta) (workload.Spec, error) {
	spec, ok := workload.ByName(strings.ToLower(meta.Workload))
	if !ok {
		return workload.Spec{}, fmt.Errorf("tsm: trace metadata names unknown workload %q (known: %s)", meta.Workload, strings.Join(workload.AllNames(), ", "))
	}
	return spec, nil
}

// OptionsFor converts a trace file's metadata back into evaluation options.
func OptionsFor(meta TraceMeta) Options {
	return Options{Nodes: meta.Nodes, Scale: meta.Scale, Seed: meta.Seed, Repeat: meta.Repeat}.normalize()
}

// GenerateTrace builds the named workload at the given options, runs it
// through the functional coherence engine, and returns the classified trace
// together with the generator (whose Timing profile the timing model needs).
// The raw access stream is never materialized — only the classified trace
// the caller asked for is.
func GenerateTrace(name string, opts Options) (*Trace, Generator, error) {
	opts, err := opts.checked()
	if err != nil {
		return nil, nil, err
	}
	gen, err := newGenerator(name, opts)
	if err != nil {
		return nil, nil, err
	}
	eng := coherence.New(coherence.Config{Nodes: opts.Nodes, Geometry: config.DefaultSystem().Geometry})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		return nil, nil, fmt.Errorf("tsm: generating %s trace: %w", name, err)
	}
	return tr, gen, nil
}

// Report is a compact evaluation summary for one model on one trace.
type Report struct {
	// Model names the evaluated technique ("TSE", "Stride", "GHB G/AC"...).
	Model string
	// Consumptions is the number of coherent read misses evaluated.
	Consumptions uint64
	// Coverage is the fraction of consumptions eliminated.
	Coverage float64
	// Discards is the number of erroneously fetched blocks as a fraction
	// of consumptions.
	Discards float64
	// Speedup is the timing-model speedup over the baseline system
	// (only set by EvaluateTSE).
	Speedup float64
	// SpeedupCI is the 95% confidence half-width of the speedup.
	SpeedupCI float64
}

// String renders the report in one line.
func (r Report) String() string {
	s := fmt.Sprintf("%-8s consumptions=%d coverage=%.1f%% discards=%.1f%%",
		r.Model, r.Consumptions, 100*r.Coverage, 100*r.Discards)
	if r.Speedup > 0 {
		s += fmt.Sprintf(" speedup=%.2f (±%.3f)", r.Speedup, r.SpeedupCI)
	}
	return s
}

// tseConfig derives the paper's TSE configuration for the options and
// generator.
func tseConfig(gen Generator, opts Options) tse.Config {
	cfg := config.DefaultSystem().DefaultTSE()
	cfg.Nodes = opts.Nodes
	if opts.Lookahead > 0 {
		cfg.Lookahead = opts.Lookahead
	} else if gen != nil {
		cfg.Lookahead = gen.Timing().Lookahead
	}
	return cfg
}

// timingParams builds the baseline timing parameters for a generator at the
// given (normalized) options; setting params.TSE afterwards selects the TSE
// run.
func timingParams(gen Generator, opts Options) timing.Params {
	sys := config.DefaultSystem()
	sys.Nodes = opts.Nodes
	return timing.Params{System: sys, Profile: gen.Timing(), Nodes: opts.Nodes}
}

// coverageReport converts a coverage summary into the facade Report shape.
func coverageReport(r analysis.CoverageResult) Report {
	return Report{
		Model: r.Name, Consumptions: r.Consumptions,
		Coverage: r.Coverage(), Discards: r.DiscardRate(),
	}
}

// tseReport assembles the facade Report from a TSE coverage result and the
// paired baseline/TSE timing passes. It is the single definition of this
// arithmetic: the serial in-memory oracle (EvaluateTSE, coverage from its
// own tse.System pass) and the streamed pipeline (EvaluateTSEFileWith,
// coverage from the TSE timing run's system) both end here, so their
// reports agree whenever the two systems do.
func tseReport(cov tse.Result, base, withTSE timing.Result) Report {
	speedup := timing.Speedup(base, withTSE)
	_, ci := timing.SpeedupConfidence(base, withTSE)
	return Report{
		Model:        "TSE",
		Consumptions: cov.Consumptions,
		Coverage:     cov.Coverage(),
		Discards:     cov.DiscardRate(),
		Speedup:      speedup,
		SpeedupCI:    ci,
	}
}

// EvaluateTSE runs the paper's TSE configuration over a trace: the
// trace-driven coverage/discard model plus the timing model (baseline vs.
// TSE) for the speedup. It is deliberately a plain serial loop — each model
// walks the materialized trace in turn — because it is the oracle every
// streamed path (EvaluateTSEFileWith) is tested against.
func EvaluateTSE(tr *Trace, gen Generator, opts Options) (Report, error) {
	opts, err := opts.checked()
	if err != nil {
		return Report{}, err
	}
	if tr == nil || gen == nil {
		return Report{}, fmt.Errorf("tsm: EvaluateTSE requires a trace and a generator")
	}
	if err := checkNodes(tr, opts.Nodes); err != nil {
		return Report{}, err
	}
	cfg := tseConfig(gen, opts)
	_, cov := analysis.EvaluateTSE(cfg, tr)

	params := timingParams(gen, opts)
	base, err := timing.Simulate(tr, params)
	if err != nil {
		return Report{}, err
	}
	params.TSE = &cfg
	withTSE, err := timing.Simulate(tr, params)
	if err != nil {
		return Report{}, err
	}
	return tseReport(cov, base, withTSE), nil
}

// ComparePrefetchers evaluates the stride stream buffer, both GHB variants
// and TSE on the same trace — the Figure 12 comparison — and returns one
// report per technique, in that order. Like EvaluateTSE it is a serial loop
// over the materialized trace: the oracle for EvaluateAllFileWith.
func ComparePrefetchers(tr *Trace, gen Generator, opts Options) ([]Report, error) {
	opts, err := opts.checked()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("tsm: ComparePrefetchers requires a trace")
	}
	if err := checkNodes(tr, opts.Nodes); err != nil {
		return nil, err
	}
	specs := analysis.BaselineSpecs(opts.Nodes)
	reports := make([]Report, 0, len(specs)+1)
	for _, spec := range specs {
		reports = append(reports, coverageReport(analysis.EvaluateModel(spec.New(), tr)))
	}
	cov, _ := analysis.EvaluateTSE(tseConfig(gen, opts), tr)
	return append(reports, coverageReport(cov)), nil
}

// CorrelationOpportunity runs the Figure 6 opportunity analysis and returns
// the cumulative fraction of consumptions within each temporal correlation
// distance 1..16.
func CorrelationOpportunity(tr *Trace, opts Options) ([]float64, error) {
	opts, err := opts.checked()
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("tsm: CorrelationOpportunity requires a trace")
	}
	if err := checkNodes(tr, opts.Nodes); err != nil {
		return nil, err
	}
	res := analysis.CorrelationDistance(tr, opts.Nodes)
	out := make([]float64, analysis.MaxCorrelationDistance)
	for d := 1; d <= analysis.MaxCorrelationDistance; d++ {
		out[d-1] = res.CumulativeFraction(d)
	}
	return out, nil
}

// checkNodes rejects a trace with an event from a node outside [0, nodes),
// which the in-memory models would otherwise index out of range (or, in the
// opportunity analysis, silently drop). SaveTrace's writer makes the same
// check on the way to a file.
func checkNodes(tr *Trace, nodes int) error {
	for i, e := range tr.Events {
		if e.Node < 0 || int(e.Node) >= nodes {
			return fmt.Errorf("tsm: event %d from node %d outside [0,%d)", i, e.Node, nodes)
		}
	}
	return nil
}

// experimentOptions converts facade options into a workspace's options.
// Experiments fix their own run lengths and lookaheads, so a non-default
// Repeat or Lookahead is an error rather than silently ignored.
func experimentOptions(opts Options) (experiments.Options, error) {
	opts, err := opts.checked()
	if err != nil {
		return experiments.Options{}, err
	}
	if opts.Repeat != 1 {
		return experiments.Options{}, fmt.Errorf("tsm: experiments do not support Options.Repeat (%g); leave it 0 or 1", opts.Repeat)
	}
	if opts.Lookahead != 0 {
		return experiments.Options{}, fmt.Errorf("tsm: experiments do not support Options.Lookahead (%d); leave it 0", opts.Lookahead)
	}
	return experiments.Options{Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed}, nil
}

// RunExperiment regenerates one of the paper's tables or figures (`tsesim
// -list` prints the identifiers) and returns its rendered text. Options
// Repeat and Lookahead must be left at their defaults.
func RunExperiment(id string, opts Options) (string, error) {
	eopts, err := experimentOptions(opts)
	if err != nil {
		return "", err
	}
	exp, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("tsm: unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
	}
	tbl, err := exp.Run(experiments.NewWorkspace(eopts))
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

// RunExperiments regenerates a batch of the paper's tables and figures over
// one shared workspace, with the independent experiments running in
// parallel and each workload's trace generated exactly once. The rendered
// tables are returned in the order requested and are identical to running
// each experiment serially. An empty ids slice selects every experiment.
// Options Repeat and Lookahead must be left at their defaults.
func RunExperiments(ids []string, opts Options) ([]string, error) {
	eopts, err := experimentOptions(opts)
	if err != nil {
		return nil, err
	}
	var exps []experiments.Experiment
	if len(ids) == 0 {
		exps = experiments.All()
	} else {
		for _, id := range ids {
			exp, ok := experiments.ByID(id)
			if !ok {
				return nil, fmt.Errorf("tsm: unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
			}
			exps = append(exps, exp)
		}
	}
	tables, err := experiments.RunAll(experiments.NewWorkspace(eopts), exps)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(tables))
	for i, tbl := range tables {
		out[i] = tbl.String()
	}
	return out, nil
}
