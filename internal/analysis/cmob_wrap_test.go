package analysis

import (
	"reflect"
	"slices"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// maxNodeConsumptions returns the largest per-node consumption count of a
// trace and the node that has it.
func maxNodeConsumptions(tr *trace.Trace, nodes int) (int, mem.NodeID) {
	perNode := make([]int, nodes)
	for _, e := range tr.Events {
		if e.Kind == trace.KindConsumption {
			perNode[e.Node]++
		}
	}
	m := slices.Max(perNode)
	return m, mem.NodeID(slices.Index(perNode, m))
}

// TestCMOBThatNeverWrapsIsUnlimited pins the equivalence the experiment
// workspace's cell memo relies on: System.Consume appends every consumption
// to its node's CMOB, so a CMOB holding the trace's largest per-node
// consumption count never overwrites an entry, and the whole Result equals
// the unlimited (CMOBEntries 0) run's. One entry fewer wraps on the busiest
// node, so that capacity must stay a bounded cell: at least its CMOB
// footprint differs.
func TestCMOBThatNeverWrapsIsUnlimited(t *testing.T) {
	const nodes = 4
	for _, name := range []string{"em3d", "db2", "memkv"} {
		tr, paper := consumerTrace(t, name, nodes)
		unconstrained := paper
		unconstrained.SVBEntries, unconstrained.StreamQueues, unconstrained.Lookahead = 0, 64, 8
		most, busiest := maxNodeConsumptions(tr, nodes)
		if most < 2 {
			t.Fatalf("%s: busiest node consumes %d blocks, too few to test", name, most)
		}
		for _, base := range []tse.Config{paper, unconstrained} {
			unlimited := base
			unlimited.CMOBEntries = 0
			want := tse.NewSystem(unlimited).Run(tr)

			exact := base
			exact.CMOBEntries = most
			if got := tse.NewSystem(exact).Run(tr); !reflect.DeepEqual(got, want) {
				t.Errorf("%s SVB %d: CMOB of %d entries %+v != unlimited %+v", name, base.SVBEntries, most, got, want)
			}

			short := base
			short.CMOBEntries = most - 1
			sys := tse.NewSystem(short)
			got := sys.Run(tr)
			if c := sys.CMOB(busiest); c.Appends() <= uint64(c.Capacity()) {
				t.Errorf("%s: node %d appended %d entries to a %d-entry CMOB, want it to wrap", name, busiest, c.Appends(), c.Capacity())
			}
			if reflect.DeepEqual(got, want) || got.CMOBPeakBytes != (most-1)*tse.CMOBEntryBytes {
				t.Errorf("%s SVB %d: CMOB of %d entries reports peak %d B, want %d B and a result unlike the unlimited run's",
					name, base.SVBEntries, most-1, got.CMOBPeakBytes, (most-1)*tse.CMOBEntryBytes)
			}
		}
	}
}
