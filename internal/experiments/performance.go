package experiments

import (
	"fmt"

	"tsm/internal/timing"
)

// Table3 reproduces Table 3: per workload, the trace-measured coverage, the
// consumption MLP, the chosen stream lookahead, and the full and partial
// coverage observed in the timing model.
func Table3(w *Workspace) (Table, error) {
	t := Table{
		ID:    "table3",
		Title: "Streaming timeliness",
		Columns: []string{
			"Workload", "Trace Cov.", "MLP", "Lookahead", "Full Cov.", "Partial Cov.", "Partial hidden",
		},
		Notes: "Paper: em3d 100/94/5, moldyn 98/83/14, ocean 98/27/57, Apache 43/26/16, DB2 60/36/11, " +
			"Oracle 53/34/9, Zeus 43/29/14 (trace/full/partial coverage, %).",
	}
	for _, name := range w.WorkloadNames() {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		prof := data.Generator.Timing()
		tseRes := pair.withTSE
		t.Rows = append(t.Rows, []string{
			name,
			pct(tseRes.TSE.Coverage()),
			fmt.Sprintf("%.1f", prof.MLP),
			fmt.Sprintf("%d", prof.Lookahead),
			pct(tseRes.FullCoverage()),
			pct(tseRes.PartialCoverage()),
			pct(tseRes.PartialLatencyHidden),
		})
	}
	return t, nil
}

// Fig14 reproduces Figure 14: the execution-time breakdown of the base and
// TSE systems (normalised to the base run) and the TSE speedup with a 95%
// confidence interval from paired measurement segments.
func Fig14(w *Workspace) (Table, error) {
	t := Table{
		ID:    "fig14",
		Title: "Performance improvement from TSE",
		Columns: []string{
			"Workload", "Base busy/other/coherent", "TSE busy/other/coherent (norm.)", "Speedup", "95% CI",
		},
		Notes: "Paper: speedups of 1.07-3.29 for scientific workloads (em3d highest) and 1.06-1.21 for " +
			"commercial workloads (DB2 highest).",
	}
	for _, name := range w.WorkloadNames() {
		_, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		base, withTSE := pair.base, pair.withTSE

		baseTotal := float64(base.TotalCycles())
		bb, bo, bc := base.Breakdown.Fractions()
		tb := float64(withTSE.Breakdown.BusyCycles) / baseTotal
		to := float64(withTSE.Breakdown.OtherStallCycles) / baseTotal
		tc := float64(withTSE.Breakdown.CoherentStallCycles) / baseTotal

		speedup := timing.Speedup(base, withTSE)
		_, ci := timing.SpeedupConfidence(base, withTSE)

		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f/%.2f/%.2f", bb, bo, bc),
			fmt.Sprintf("%.2f/%.2f/%.2f", tb, to, tc),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("±%.3f", ci),
		})
	}
	return t, nil
}
