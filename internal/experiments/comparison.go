package experiments

import "tsm/internal/analysis"

// Fig12 reproduces Figure 12: coverage and discards of the stride stream
// buffer, GHB with distance correlation (G/DC), GHB with address correlation
// (G/AC), and TSE with its paper configuration (1.5 MB CMOB).
func Fig12(w *Workspace) (Table, error) {
	t := Table{
		ID:      "fig12",
		Title:   "TSE compared to recent prefetchers",
		Columns: []string{"Workload", "Technique", "Coverage", "Discards"},
		Notes: "Paper: the stride prefetcher rarely fires; GHB G/AC beats G/DC on discards but its " +
			"512-entry history is too small, so TSE wins coverage on every workload.",
	}
	specs := analysis.BaselineSpecs(w.Options().Nodes)
	for _, name := range w.WorkloadNames() {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		results := make([]analysis.CoverageResult, 0, len(specs)+1)
		for _, spec := range specs {
			results = append(results, analysis.EvaluateModel(spec.New(), data.Trace))
		}
		results = append(results, analysis.TSECoverage(pair.withTSE.TSE))
		for _, r := range results {
			t.Rows = append(t.Rows, []string{name, r.Name, pct(r.Coverage()), pct(r.DiscardRate())})
		}
	}
	return t, nil
}
