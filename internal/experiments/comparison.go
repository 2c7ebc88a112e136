package experiments

import (
	"tsm/internal/analysis"
	"tsm/internal/prefetch"
)

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
	nodes := w.Options().Nodes
	for _, name := range w.WorkloadNames() {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}

		strideCfg := prefetch.DefaultStrideConfig()
		strideCfg.Nodes = nodes
		stride := analysis.EvaluateModel(prefetch.NewStride(strideCfg), data.Trace)

		gdcCfg := prefetch.DefaultGHBConfig(prefetch.GDC)
		gdcCfg.Nodes = nodes
		gdc := analysis.EvaluateModel(prefetch.NewGHB(gdcCfg), data.Trace)

		gacCfg := prefetch.DefaultGHBConfig(prefetch.GAC)
		gacCfg.Nodes = nodes
		gac := analysis.EvaluateModel(prefetch.NewGHB(gacCfg), data.Trace)

		tseCov := analysis.TSECoverage(pair.withTSE.TSE)
		for _, r := range []analysis.CoverageResult{stride, gdc, gac, tseCov} {
			t.Rows = append(t.Rows, []string{name, r.Name, pct(r.Coverage()), pct(r.DiscardRate())})
		}
	}
	return t, nil
}
