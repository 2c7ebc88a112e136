package experiments

import (
	"fmt"

	"tsm/internal/stream"
	"tsm/internal/tse"
)

// sensitivityNodeCounts are the machine sizes the sensitivity sweep spans.
// The paper evaluates a fixed 16-node DSM; the sweep brackets it to study
// how TSE coverage scales with the number of sharers — more nodes means more
// recorded consumption orders to stream from, but also more invalidation
// noise cutting streams short.
var sensitivityNodeCounts = []int{4, 16, 32, 64}

// Sensitivity is the node-count sensitivity sweep: TSE coverage (and the
// discard rate, the accuracy cost that usually moves with it) for every
// selected workload at 4/16/32/64 nodes, everything else pinned at the paper
// configuration. Each node count gets its own sub-workspace — node count
// changes the generated trace, so nothing can be shared with the caller's
// workspace — and the four sweeps generate their traces in parallel over the
// worker pool.
func Sensitivity(w *Workspace) (Table, error) {
	t := Table{
		ID:    "sensitivity",
		Title: "TSE coverage sensitivity to node count",
		Notes: "Same Section 4 methodology per node count; the caller's node count is ignored. " +
			"Coverage tracks how much consumption order survives as sharers are added.",
	}
	t.Columns = []string{"Workload", "Class"}
	for _, n := range sensitivityNodeCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("Cov@%d", n), fmt.Sprintf("Disc@%d", n))
	}

	// One sub-workspace per node count, inheriting scale/seed/selection.
	subs := make([]*Workspace, len(sensitivityNodeCounts))
	for i, n := range sensitivityNodeCounts {
		subs[i] = NewWorkspace(Options{
			Nodes: n, Scale: w.opts.Scale, Seed: w.opts.Seed, Workloads: w.opts.Workloads,
		})
	}

	// Evaluate the sweep cells in parallel: one task per node count, each
	// covering every workload at that size. Results merge in sweep order, so
	// the table is deterministic.
	type column struct {
		coverage []string
		discards []string
	}
	names := w.WorkloadNames()
	cols, err := stream.RunOrdered(len(subs), 0, func(i int) (column, error) {
		sub := subs[i]
		sub.Observe(w.metrics, w.tracer)
		var col column
		for _, name := range names {
			data, err := sub.Data(name)
			if err != nil {
				return column{}, err
			}
			// Each (node count, workload) cell has its own trace — node
			// count changes generation — so the sweep here is width-one,
			// keyed and memoized in the sub-workspace that owns the trace.
			cfg := paperTSEConfig(sub.Options().Nodes, data.Generator.Timing().Lookahead)
			cells, err := sweepCells(sub, data, []tse.Config{cfg})
			if err != nil {
				return column{}, err
			}
			cov := cells[0]
			col.coverage = append(col.coverage, pct(cov.Coverage()))
			col.discards = append(col.discards, pct(cov.DiscardRate()))
		}
		return col, nil
	})
	if err != nil {
		return Table{}, err
	}

	for wi, name := range names {
		data, err := subs[0].Data(name)
		if err != nil {
			return Table{}, err
		}
		row := []string{name, data.Spec.Class.String()}
		for _, col := range cols {
			row = append(row, col.coverage[wi], col.discards[wi])
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
