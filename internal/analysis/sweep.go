package analysis

import (
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/tse"
)

// The sweep evaluator: an entire sensitivity sweep — many TSE configurations
// over the SAME access stream — evaluated as N concurrent consumers of ONE
// pass. The paper's Figures 7–9 (and the node-count study) are exactly this
// shape: before this file existed the experiments layer ran one full
// EvaluateTSE pass per sweep cell (Figure 7 alone was 44 passes over eleven
// traces), paying the stream walk once per cell; now each workload's stream
// is walked once per figure, however many cells the figure sweeps. This is
// the inter-query sharing argument of Shared Arrangements applied to trace
// evaluation: maintain one stream, share it across every concurrent query.

// SweepResult is one cell of a TSE configuration sweep: the common coverage
// summary plus the full TSE result (stream lengths, traffic, CMOB
// footprint), exactly what EvaluateTSE returns for the cell's config.
type SweepResult struct {
	// Coverage is the cell's coverage/discard summary.
	Coverage CoverageResult
	// Full is the cell's complete TSE result.
	Full tse.Result
}

// SweepWith evaluates every TSE configuration as a concurrent consumer of a
// SINGLE pass over src under pcfg: the fan-out engine in internal/pipeline
// decodes the stream exactly once and broadcasts it (one chunk copy through
// the ring, per-cell cursors), so the cost of adding a sweep cell is one
// more TSE model, never another walk of the stream. Results are returned in
// config order and are bit-identical to running EvaluateTSE per cell, a
// property the differential tests pin. An empty config list returns no
// results without reading src. The zero pcfg attaches no instrumentation.
func SweepWith(pcfg pipeline.Config, cfgs []tse.Config, src stream.Source) ([]SweepResult, error) {
	cells := make([]*TSEConsumer, len(cfgs))
	consumers := make([]pipeline.Consumer, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = NewTSEConsumer(cfg)
		consumers[i] = cells[i]
	}
	if err := pcfg.Run(src, consumers...); err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(cells))
	for i, c := range cells {
		out[i] = SweepResult{Coverage: c.Result, Full: c.Full}
	}
	return out, nil
}
