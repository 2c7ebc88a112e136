package tsm

// File replay through the streamed pipeline. LoadTrace + EvaluateTSE
// materializes the whole event stream before evaluating it, which makes file
// replay memory-bound on large traces. The functions here instead drive the
// full TSE + timing stack directly from an event source in bounded memory,
// decoding it exactly ONCE: a single decode pass is teed into every consumer
// (the coverage model, the baseline timing model, the TSE timing model, the
// Figure 12 baselines) by the fan-out engine in internal/pipeline, with each
// consumer on its own goroutine reading a cursor of the shared broadcast
// ring. The reports are bit-identical to the serial in-memory oracle
// (EvaluateTSE, ComparePrefetchers) — proven by tests over every registered
// workload and pinned by the golden-file harness in testdata/. The file entry
// points live in replay_config.go (EvaluateTSEFileWith and friends); for
// whole sensitivity sweeps over one file, see sweep.go: N configurations,
// still exactly one decode.

import (
	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/timing"
)

// ReplayMeta reads just the generation metadata embedded in a trace file.
func ReplayMeta(path string) (TraceMeta, error) {
	info, err := stream.Describe(path)
	return info.Meta, err
}

// replayContext rebuilds the generator, options and TSE configuration a
// trace file's metadata describes.
func replayContext(meta TraceMeta) (Generator, Options, error) {
	gen, err := GeneratorFor(meta)
	if err != nil {
		return nil, Options{}, err
	}
	return gen, OptionsFor(meta), nil
}

// EvaluateTSESource evaluates the paper's TSE configuration over a single
// pass of an event source: ONE decode of src is teed into the trace-driven
// coverage model, the baseline timing model and the TSE timing model, each
// running concurrently on its own goroutine over the fan-out engine's
// default ring broadcast. The events are never materialized, and the Report
// is bit-identical to EvaluateTSE over the equivalent in-memory trace. meta
// names the workload the source was generated from (as embedded in trace
// files).
func EvaluateTSESource(src EventSource, meta TraceMeta) (Report, error) {
	return evaluateTSESourceWith(pipeline.Config{}, src, meta)
}

// evaluateTSESourceWith is EvaluateTSESource under an explicit pipeline
// configuration — the observability seam. Consumers default to the
// coverage/timing-base/timing-tse labels in metrics and trace lanes.
func evaluateTSESourceWith(pcfg pipeline.Config, src EventSource, meta TraceMeta) (Report, error) {
	gen, opts, err := replayContext(meta)
	if err != nil {
		return Report{}, err
	}
	if pcfg.ConsumerNames == nil {
		pcfg.ConsumerNames = tseConsumerNames()
	}
	cfg := tseConfig(gen, opts)
	cov := analysis.NewTSEConsumer(cfg)
	params := timingParams(gen, opts)
	base := timing.NewConsumer(params)
	tseParams := params
	tseParams.TSE = &cfg
	withTSE := timing.NewConsumer(tseParams)
	if err := pcfg.Run(src, cov, base, withTSE); err != nil {
		return Report{}, err
	}
	return tseReport(cov.Result, base.Result, withTSE.Result), nil
}

// EvaluateAllSource runs the Figure 12 comparison — stride, both GHB
// variants and TSE — over a single pass of an event source: ONE decode of
// src is teed into all four models concurrently. The reports are identical
// to ComparePrefetchers over the equivalent in-memory trace, in the same
// order.
func EvaluateAllSource(src EventSource, meta TraceMeta) ([]Report, error) {
	return evaluateAllSourceWith(pipeline.Config{}, src, meta)
}

// evaluateAllSourceWith is EvaluateAllSource under an explicit pipeline
// configuration — the observability seam. Consumers default to their model
// names in metrics and trace lanes.
func evaluateAllSourceWith(pcfg pipeline.Config, src EventSource, meta TraceMeta) ([]Report, error) {
	gen, opts, err := replayContext(meta)
	if err != nil {
		return nil, err
	}
	cfg := tseConfig(gen, opts)
	specs := analysis.BaselineSpecs(opts.Nodes)
	models := make([]*analysis.ModelConsumer, len(specs))
	consumers := make([]pipeline.Consumer, 0, len(specs)+1)
	names := make([]string, 0, len(specs)+1)
	for i, spec := range specs {
		models[i] = analysis.NewModelConsumer(spec.New())
		consumers = append(consumers, models[i])
		names = append(names, spec.Name)
	}
	tseCov := analysis.NewTSEConsumer(cfg)
	consumers = append(consumers, tseCov)
	if pcfg.ConsumerNames == nil {
		pcfg.ConsumerNames = append(names, "TSE")
	}
	if err := pcfg.Run(src, consumers...); err != nil {
		return nil, err
	}
	reports := make([]Report, 0, len(consumers))
	for _, m := range models {
		reports = append(reports, coverageReport(m.Result))
	}
	return append(reports, coverageReport(tseCov.Result)), nil
}
