package experiments

import (
	"fmt"

	"tsm/internal/tse"
)

// The accuracy/sensitivity figures below are sweeps: many TSE configurations
// evaluated over the SAME workload trace. Each driver builds its figure's
// config list once and evaluates all cells through sweepCells — at most one
// walk of each workload's trace per figure, with the cells as concurrent
// consumers of a single pass — instead of one full evaluation pass per cell
// (Figure 7 alone used to be 44 independent passes across the
// eleven-workload matrix). The cells overlap across figures: Figure 7's
// streams=2 cell is Figure 8's LA=8 cell, and a CMOB that never wraps is an
// unlimited one, so most of Figure 10's capacity cells are its peak cell.
// sweepCells evaluates each distinct cell once per Workspace.

// sweepBaseLookahead is the fixed stream lookahead the Figure 7 and
// Figure 9 sweeps evaluate at (the paper's chosen default).
const sweepBaseLookahead = 8

// SweepConfigs returns the cell labels and TSE configurations of a named
// sensitivity sweep at the given node count: "streams" (Figure 7), "lookahead"
// (Figure 8) or "svb" (Figure 9). It reports false for any other name. The
// configurations are the figure drivers' own, so the facade's trace-file
// sweeps cannot drift from the figures they reproduce.
func SweepConfigs(sweep string, nodes int) (labels []string, cfgs []tse.Config, ok bool) {
	switch sweep {
	case "streams":
		cfgs = fig7Configs(nodes)
		for i := range cfgs {
			labels = append(labels, fmt.Sprintf("streams=%d", i+1))
		}
	case "lookahead":
		cfgs = fig8Configs(nodes)
		for _, l := range Fig8Lookaheads() {
			labels = append(labels, fmt.Sprintf("LA=%d", l))
		}
	case "svb":
		cfgs = fig9Configs(nodes)
		for _, p := range fig9SVBPoints() {
			labels = append(labels, p.Label)
		}
	default:
		return nil, nil, false
	}
	return labels, cfgs, true
}

// fig7Configs is Figure 7's sweep: one to four compared streams, lookahead
// eight, no TSE hardware restrictions.
func fig7Configs(nodes int) []tse.Config {
	cfgs := make([]tse.Config, 0, 4)
	for streams := 1; streams <= 4; streams++ {
		cfgs = append(cfgs, unconstrainedTSEConfig(nodes, streams, sweepBaseLookahead))
	}
	return cfgs
}

// Fig7 reproduces Figure 7: coverage and discards as a function of the
// number of compared streams (1 to 4), with a lookahead of eight and no TSE
// hardware restrictions.
func Fig7(w *Workspace) (Table, error) {
	t := Table{
		ID:      "fig7",
		Title:   "Sensitivity to the number of compared streams",
		Columns: []string{"Workload", "Streams", "Coverage", "Discards"},
		Notes: "Paper: with a single stream commercial workloads discard up to ~240% of consumptions; " +
			"comparing two streams drops discards drastically with minimal coverage loss.",
	}
	cfgs := fig7Configs(w.opts.Nodes)
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			return Table{}, err
		}
		cells, err := sweepCells(w, data, cfgs)
		if err != nil {
			return Table{}, err
		}
		for i, cov := range cells {
			t.Rows = append(t.Rows, []string{
				name, fmt.Sprintf("%d", i+1), pct(cov.Coverage()), pct(cov.DiscardRate()),
			})
		}
	}
	return t, nil
}

// Fig8Lookaheads returns the stream-lookahead axis Figure 8 sweeps.
func Fig8Lookaheads() []int { return []int{1, 2, 4, 8, 16, 24} }

// fig8Configs is Figure 8's sweep: two compared streams, unconstrained
// hardware, one cell per lookahead.
func fig8Configs(nodes int) []tse.Config {
	lookaheads := Fig8Lookaheads()
	cfgs := make([]tse.Config, 0, len(lookaheads))
	for _, l := range lookaheads {
		cfgs = append(cfgs, unconstrainedTSEConfig(nodes, 2, l))
	}
	return cfgs
}

// Fig8 reproduces Figure 8: discards (normalised to consumptions) as a
// function of the stream lookahead.
func Fig8(w *Workspace) (Table, error) {
	t := Table{
		ID:      "fig8",
		Title:   "Effect of stream lookahead on discards",
		Columns: []string{"Workload"},
		Notes: "Paper: discards grow roughly linearly with lookahead for commercial workloads and stay " +
			"low for scientific workloads.",
	}
	for _, l := range Fig8Lookaheads() {
		t.Columns = append(t.Columns, fmt.Sprintf("LA=%d", l))
	}
	cfgs := fig8Configs(w.opts.Nodes)
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			return Table{}, err
		}
		cells, err := sweepCells(w, data, cfgs)
		if err != nil {
			return Table{}, err
		}
		row := []string{name}
		for _, cov := range cells {
			row = append(row, pct(cov.DiscardRate()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// svbPoint is one cell of Figure 9's SVB-capacity axis.
type svbPoint struct {
	// Label names the capacity ("512B", ..., "inf").
	Label string
	// Entries is the SVB capacity in 64-byte blocks (0 means unlimited).
	Entries int
}

// fig9SVBPoints returns the SVB-capacity axis Figure 9 sweeps.
func fig9SVBPoints() []svbPoint {
	return []svbPoint{
		{"512B", 512 / 64},
		{"2KB", 2048 / 64},
		{"8KB", 8192 / 64},
		{"inf", 0},
	}
}

// fig9Configs is Figure 9's sweep: the paper configuration with an unlimited
// CMOB (isolating the SVB effect), one cell per SVB capacity.
func fig9Configs(nodes int) []tse.Config {
	points := fig9SVBPoints()
	cfgs := make([]tse.Config, 0, len(points))
	for _, p := range points {
		cfg := paperTSEConfig(nodes, sweepBaseLookahead)
		cfg.CMOBEntries = 0 // isolate the SVB effect
		cfg.SVBEntries = p.Entries
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// Fig9 reproduces Figure 9: coverage and discards as the SVB capacity grows
// from 512 bytes to unlimited.
func Fig9(w *Workspace) (Table, error) {
	t := Table{
		ID:      "fig9",
		Title:   "Sensitivity to SVB size",
		Columns: []string{"Workload", "SVB", "Coverage", "Discards"},
		Notes: "Paper: a 2 KB (32-entry) SVB achieves near-optimal coverage; little is gained beyond " +
			"512 bytes per active stream of lookahead.",
	}
	points := fig9SVBPoints()
	cfgs := fig9Configs(w.opts.Nodes)
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			return Table{}, err
		}
		cells, err := sweepCells(w, data, cfgs)
		if err != nil {
			return Table{}, err
		}
		for i, cov := range cells {
			t.Rows = append(t.Rows, []string{name, points[i].Label, pct(cov.Coverage()), pct(cov.DiscardRate())})
		}
	}
	return t, nil
}

// fig10Capacities are the per-node CMOB capacities Figure 10 sweeps.
var fig10Capacities = []int{192, 768, 3 << 10, 12 << 10, 48 << 10, 192 << 10, 768 << 10, 3 << 20}

// fig10Configs is Figure 10's sweep for one workload: the unlimited-CMOB
// peak first, then one cell per capacity (the lookahead is per-workload, so
// unlike Figures 7-9 the config list depends on the workload).
func fig10Configs(nodes, lookahead int) []tse.Config {
	cfgs := make([]tse.Config, 0, len(fig10Capacities)+1)
	peak := paperTSEConfig(nodes, lookahead)
	peak.CMOBEntries = 0
	cfgs = append(cfgs, peak)
	for _, capBytes := range fig10Capacities {
		cfg := paperTSEConfig(nodes, lookahead)
		cfg.CMOBEntries = capBytes / tse.CMOBEntryBytes
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// Fig10 reproduces Figure 10: the fraction of peak coverage attained as the
// per-node CMOB capacity grows. Peak and capacity cells ride the same single
// walk of each workload's trace.
func Fig10(w *Workspace) (Table, error) {
	t := Table{
		ID:      "fig10",
		Title:   "CMOB storage requirements (% of peak coverage)",
		Columns: []string{"Workload"},
		Notes: "Paper: scientific applications need the CMOB to cover their active shared working set; " +
			"commercial coverage improves smoothly, peaking around 1.5 MB.",
	}
	for _, c := range fig10Capacities {
		t.Columns = append(t.Columns, fmtBytes(c))
	}
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			return Table{}, err
		}
		cells, err := sweepCells(w, data, fig10Configs(w.opts.Nodes, data.Generator.Timing().Lookahead))
		if err != nil {
			return Table{}, err
		}
		peak, rest := cells[0], cells[1:]
		row := []string{name}
		for _, cov := range rest {
			frac := 0.0
			if peak.Coverage() > 0 {
				frac = cov.Coverage() / peak.Coverage()
				if frac > 1 {
					frac = 1
				}
			}
			row = append(row, pct(frac))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dk", b>>10)
	default:
		return fmt.Sprintf("%d", b)
	}
}
