package experiments

import (
	"fmt"

	"tsm/internal/timing"
)

// mixComparison renders one cross-workload-mix experiment: every named
// workload — the parts run standalone, then the mix that colocates them — at
// the identical configuration, so the table shows how much TSE coverage
// survives the phase-alternating interruption the mix introduces.
func mixComparison(w *Workspace, id, title, notes string, names []string) (Table, error) {
	t := Table{
		ID:    id,
		Title: title,
		Columns: []string{
			"Workload", "Consumptions", "Coverage", "Discards", "Speedup", "95% CI",
		},
		Notes: notes,
	}
	for _, name := range names {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		cov := pair.withTSE.TSE
		speedup := timing.Speedup(pair.base, pair.withTSE)
		_, ci := timing.SpeedupConfidence(pair.base, pair.withTSE)

		t.Rows = append(t.Rows, []string{
			name,
			fmtInt(data.Consumptions),
			pct(cov.Coverage()),
			pct(cov.DiscardRate()),
			fmt.Sprintf("%.2f", speedup),
			fmt.Sprintf("±%.3f", ci),
		})
	}
	return t, nil
}

// MixExperiment evaluates the cross-workload mix against the workloads it
// colocates. The mix generator interleaves memkv's short Zipf-hot chain
// streams with cdn's long ordered payload streams on the SAME nodes, in
// phase-alternating bursts, so each node's consumption order keeps switching
// texture — the colocation scenario none of the paper's single-application
// runs exercises.
func MixExperiment(w *Workspace) (Table, error) {
	return mixComparison(w,
		"mix",
		"Cross-workload mix vs its colocated parts (memkv + cdn)",
		"mix = memkv + cdn colocated on the same nodes, phase-alternating 64-access bursts; "+
			"parts are run standalone at the same configuration for comparison.",
		[]string{"memkv", "cdn", "mix"})
}

// MixSciComExperiment evaluates the scientific+commercial mix: em3d's long,
// highly repetitive producer/consumer streams colocated with db2's short
// migratory OLTP streams. Where the memkv+cdn mix alternates two commercial
// textures, this one alternates across the CLASS boundary — the streams the
// TSE follows switch between scientific-length runs and commercial churn on
// every burst, the harshest interruption pattern in the registry.
func MixSciComExperiment(w *Workspace) (Table, error) {
	return mixComparison(w,
		"mix-sci-com",
		"Scientific + commercial mix vs its colocated parts (em3d + db2)",
		"mix-sci-com = em3d + db2 colocated on the same nodes, phase-alternating 64-access bursts; "+
			"parts are run standalone at the same configuration for comparison.",
		[]string{"em3d", "db2", "mix-sci-com"})
}
