package experiments

import (
	"fmt"

	"tsm/internal/analysis"
	"tsm/internal/tse"
)

// Fig6 reproduces Figure 6: the cumulative fraction of consumptions whose
// temporal correlation distance from the previous consumption is within ±d,
// for d up to 16. Scientific workloads should be near 100% at d=1;
// commercial workloads roughly 40-65% by d=8-16.
func Fig6(w *Workspace) (Table, error) {
	distances := []int{1, 2, 4, 8, 16}
	t := Table{
		ID:      "fig6",
		Title:   "Opportunity to exploit temporal correlation",
		Columns: []string{"Workload"},
		Notes: "Paper: scientific applications show >93% at distance 1; commercial workloads " +
			"reach 40%-65% by distance 8-16.",
	}
	for _, d := range distances {
		t.Columns = append(t.Columns, fmt.Sprintf("±%d", d))
	}
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			return Table{}, err
		}
		res := analysis.CorrelationDistance(data.Trace, w.Options().Nodes)
		row := []string{name}
		for _, d := range distances {
			row = append(row, pct(res.CumulativeFraction(d)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: the cumulative fraction of all SVB hits
// contributed by streams of at most a given length, using the paper's TSE
// configuration.
func Fig13(w *Workspace) (Table, error) {
	buckets := []int{1, 4, 8, 32, 128, 512, 2048, 8192, 131072}
	t := Table{
		ID:      "fig13",
		Title:   "Stream length (cumulative fraction of SVB hits)",
		Columns: []string{"Workload"},
		Notes: "Paper: scientific applications are dominated by streams of hundreds to thousands of " +
			"blocks; commercial workloads obtain 30%-45% of coverage from streams shorter than 8 blocks.",
	}
	for _, b := range buckets {
		t.Columns = append(t.Columns, fmt.Sprintf("<=%d", b))
	}
	for _, name := range w.WorkloadNames() {
		_, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		cdf := analysis.StreamLengthCDF(pair.withTSE.TSE, buckets)
		row := []string{name}
		for _, v := range cdf {
			row = append(row, pct(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// paperTSEConfig returns the paper's chosen TSE configuration (two compared
// streams, 32-entry SVB, 1.5 MB CMOB) with the per-workload lookahead of
// Table 3.
func paperTSEConfig(nodes, lookahead int) tse.Config {
	cfg := tse.DefaultConfig()
	cfg.Nodes = nodes
	if lookahead > 0 {
		cfg.Lookahead = lookahead
	}
	return cfg
}

// unconstrainedTSEConfig returns the configuration used for the opportunity
// and accuracy studies of Section 5.2 (unlimited SVB storage, unlimited
// stream queues, near-infinite CMOB capacity).
func unconstrainedTSEConfig(nodes, comparedStreams, lookahead int) tse.Config {
	cfg := paperTSEConfig(nodes, lookahead)
	cfg.CMOBEntries = 0
	cfg.SVBEntries = 0
	cfg.StreamQueues = 64
	cfg.ComparedStreams = comparedStreams
	return cfg
}
