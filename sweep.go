package tsm

// Named TSE sweeps over trace files: an entire sensitivity study — many TSE
// configurations over the same access stream — evaluated as N concurrent
// consumers of ONE decode pass. The fan-out engine in internal/pipeline
// broadcasts the decoded chunks through a shared ring (one chunk copy,
// per-cell cursors, slowest-cursor backpressure), so a sweep over a trace
// file of any size runs in bounded memory and costs one codec pass in total,
// however many cells the sweep has. The per-cell reports are bit-identical
// to evaluating each configuration on its own (pinned by tests with a
// counting source asserting the single decode).

import (
	"fmt"
	"strings"

	"tsm/internal/analysis"
	"tsm/internal/config"
	"tsm/internal/experiments"
	"tsm/internal/pipeline"
	"tsm/internal/tse"
)

// SweepCell is one evaluated cell of a named TSE sweep: the swept parameter
// value and the cell's coverage report. Sweeps study coverage/discard
// sensitivity, so the timing-model fields (Speedup) are zero.
type SweepCell struct {
	// Label names the cell's swept parameter value ("streams=2", "LA=8",
	// "2KB").
	Label string
	// Report is the cell's coverage report.
	Report Report
}

// String renders the cell in one line.
func (c SweepCell) String() string { return fmt.Sprintf("%-10s %s", c.Label, c.Report) }

// sweepConfigs expands a named sweep into its cell labels and TSE
// configurations at the given node count. The cells are the experiment
// drivers' own (experiments.SweepConfigs), so the trace-file sweeps cannot
// drift from the figures they reproduce; every cell sets its own lookahead,
// so the workload's does not matter.
func sweepConfigs(sweep string, opts Options) ([]string, []tse.Config, error) {
	sys := config.DefaultSystem()
	sys.Nodes = opts.Nodes
	labels, cfgs, ok := experiments.SweepConfigs(strings.ToLower(strings.TrimSpace(sweep)), sys)
	if !ok {
		return nil, nil, fmt.Errorf("tsm: unknown sweep %q (known: streams, lookahead, svb)", sweep)
	}
	return labels, cfgs, nil
}

// EvaluateTSESweepSource runs a named TSE sweep over a single pass of an
// event source: ONE decode of src is broadcast to every sweep cell's TSE
// model by the ring fan-out engine, so the stream is walked once however
// many cells the sweep has, and memory stays bounded by the ring — never the
// stream length. meta names the workload the source was generated from (as
// embedded in trace files); the per-cell reports are bit-identical to
// evaluating each cell's configuration independently.
func EvaluateTSESweepSource(src EventSource, meta TraceMeta, sweep string) ([]SweepCell, error) {
	return evaluateTSESweepSourceWith(pipeline.Config{}, src, meta, sweep)
}

// evaluateTSESweepSourceWith is EvaluateTSESweepSource under an explicit
// pipeline configuration — the observability seam. Cell consumers default to
// their sweep labels in metrics and trace lanes.
func evaluateTSESweepSourceWith(pcfg pipeline.Config, src EventSource, meta TraceMeta, sweep string) ([]SweepCell, error) {
	// No sweep cell uses the workload's lookahead, so the name is only
	// validated: building an em3d generator builds its whole graph.
	if _, err := specFor(meta); err != nil {
		return nil, err
	}
	labels, cfgs, err := sweepConfigs(sweep, OptionsFor(meta))
	if err != nil {
		return nil, err
	}
	if pcfg.ConsumerNames == nil {
		pcfg.ConsumerNames = labels
	}
	results, err := analysis.SweepWith(pcfg, cfgs, src)
	if err != nil {
		return nil, err
	}
	cells := make([]SweepCell, len(results))
	for i, r := range results {
		cells[i] = SweepCell{Label: labels[i], Report: coverageReport(r.Coverage)}
	}
	return cells, nil
}
