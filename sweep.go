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

// TSESweeps lists the named sweeps EvaluateTSESweepFileWith understands, in
// presentation order: "streams" (the Figure 7 study — one to four compared
// streams, unconstrained hardware), "lookahead" (Figure 8 — stream lookahead
// 1 to 24, two compared streams) and "svb" (Figure 9 — SVB capacity from
// 512 bytes to unlimited, unlimited CMOB).
func TSESweeps() []string { return []string{"streams", "lookahead", "svb"} }

// sweepConfigs expands a named sweep into its cell labels and TSE
// configurations for the workload a trace's metadata describes. The cell
// axes are the experiment drivers' own, imported from internal/experiments
// (Fig8Lookaheads, Fig9SVBPoints, SweepBaseLookahead), so the trace-file
// sweeps cannot drift from the figures they reproduce.
func sweepConfigs(sweep string, gen Generator, opts Options) ([]string, []tse.Config, error) {
	base := tseConfig(gen, opts)
	// The opportunity/accuracy studies of Section 5.2 lift the hardware
	// restrictions to isolate the swept parameter.
	unconstrained := func(streams, lookahead int) tse.Config {
		cfg := base
		cfg.CMOBEntries = 0
		cfg.SVBEntries = 0
		cfg.StreamQueues = 64
		cfg.ComparedStreams = streams
		cfg.Lookahead = lookahead
		return cfg
	}
	var labels []string
	var cfgs []tse.Config
	switch strings.ToLower(strings.TrimSpace(sweep)) {
	case "streams":
		for streams := 1; streams <= 4; streams++ {
			labels = append(labels, fmt.Sprintf("streams=%d", streams))
			cfgs = append(cfgs, unconstrained(streams, experiments.SweepBaseLookahead))
		}
	case "lookahead":
		for _, la := range experiments.Fig8Lookaheads() {
			labels = append(labels, fmt.Sprintf("LA=%d", la))
			cfgs = append(cfgs, unconstrained(2, la))
		}
	case "svb":
		for _, p := range experiments.Fig9SVBPoints() {
			cfg := base
			cfg.Lookahead = experiments.SweepBaseLookahead // as fig9Configs pins it
			cfg.CMOBEntries = 0                            // isolate the SVB effect
			cfg.SVBEntries = p.Entries
			labels = append(labels, p.Label)
			cfgs = append(cfgs, cfg)
		}
	default:
		return nil, nil, fmt.Errorf("tsm: unknown sweep %q (known: %s)", sweep, strings.Join(TSESweeps(), ", "))
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
	gen, opts, err := replayContext(meta)
	if err != nil {
		return nil, err
	}
	labels, cfgs, err := sweepConfigs(sweep, gen, opts)
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
