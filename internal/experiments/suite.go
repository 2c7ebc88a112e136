package experiments

import (
	"fmt"

	"tsm/internal/timing"
)

// Suite is the suite-wide comparison across the full workload matrix — the
// paper's seven applications plus the extended scenarios (memkv, pagerank,
// cdn). For every workload it reports the trace size, TSE coverage and
// discards under the paper configuration, and the timing-model speedup with
// its confidence interval: the one-table summary of how temporal streaming
// generalises beyond the workloads the paper measured.
func Suite(w *Workspace) (Table, error) {
	t := Table{
		ID:    "suite",
		Title: "Suite-wide TSE comparison (full workload matrix)",
		Columns: []string{
			"Workload", "Class", "Consumptions", "Coverage", "Discards", "Speedup", "95% CI",
		},
		Notes: "Workloads beyond the paper's seven follow the same Section 4 methodology; " +
			"coverage tracks how repetitive each workload's consumption order is.",
	}
	for _, name := range w.WorkloadNames() {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		cov := pair.withTSE.TSE
		speedup := timing.Speedup(pair.base, pair.withTSE)
		_, ci := timing.SpeedupConfidence(pair.base, pair.withTSE)

		t.Rows = append(t.Rows, []string{
			name,
			data.Spec.Class.String(),
			fmtInt(data.Consumptions),
			pct(cov.Coverage()),
			pct(cov.DiscardRate()),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("±%.3f", ci),
		})
	}
	return t, nil
}
