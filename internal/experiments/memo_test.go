package experiments

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tsm/internal/analysis"
	"tsm/internal/tse"
)

// TestSweepConfigsLiteralAxes pins each named sweep's labels and cells to
// literal values, so a change to a figure's axis shows up here rather than
// being checked against the axis it was built from.
func TestSweepConfigsLiteralAxes(t *testing.T) {
	const nodes = 16
	labels, cfgs, ok := SweepConfigs("svb", nodes)
	if !ok {
		t.Fatal("svb sweep missing")
	}
	svb := []struct {
		label   string
		entries int
	}{{"512B", 8}, {"2KB", 32}, {"8KB", 128}, {"inf", 0}}
	if len(cfgs) != len(svb) || len(labels) != len(svb) {
		t.Fatalf("svb sweep has %d labels and %d cells, want %d", len(labels), len(cfgs), len(svb))
	}
	for i, want := range svb {
		c := cfgs[i]
		if labels[i] != want.label || c.SVBEntries != want.entries || c.Lookahead != 8 || c.CMOBEntries != 0 {
			t.Errorf("svb cell %d = %q SVB %d LA %d CMOB %d, want %q SVB %d LA 8 CMOB 0",
				i, labels[i], c.SVBEntries, c.Lookahead, c.CMOBEntries, want.label, want.entries)
		}
	}

	labels, cfgs, ok = SweepConfigs("lookahead", nodes)
	if !ok {
		t.Fatal("lookahead sweep missing")
	}
	lookaheads := []int{1, 2, 4, 8, 16, 24}
	if len(cfgs) != len(lookaheads) || len(labels) != len(lookaheads) {
		t.Fatalf("lookahead sweep has %d labels and %d cells, want %d", len(labels), len(cfgs), len(lookaheads))
	}
	for i, la := range lookaheads {
		if want := fmt.Sprintf("LA=%d", la); labels[i] != want || cfgs[i].Lookahead != la {
			t.Errorf("lookahead cell %d = %q LA %d, want %q", i, labels[i], cfgs[i].Lookahead, want)
		}
	}

	labels, cfgs, ok = SweepConfigs("streams", nodes)
	if !ok {
		t.Fatal("streams sweep missing")
	}
	if len(cfgs) != 4 || len(labels) != 4 {
		t.Fatalf("streams sweep has %d labels and %d cells, want 4", len(labels), len(cfgs))
	}
	for i, c := range cfgs {
		if want := fmt.Sprintf("streams=%d", i+1); labels[i] != want || c.ComparedStreams != i+1 || c.Lookahead != 8 {
			t.Errorf("streams cell %d = %q %d streams LA %d, want %q %d streams LA 8",
				i, labels[i], c.ComparedStreams, c.Lookahead, want, i+1)
		}
	}

	if _, _, ok := SweepConfigs("nope", nodes); ok {
		t.Error("unknown sweep name accepted")
	}
}

// TestCanonicalCMOBBoundary: a CMOB of at least the largest per-node
// consumption count becomes unlimited, and one entry fewer stays bounded.
func TestCanonicalCMOBBoundary(t *testing.T) {
	w := testWorkspace(t)
	data, err := w.Data("db2")
	if err != nil {
		t.Fatal(err)
	}
	most := data.maxNodeConsumptions
	if most < 2 {
		t.Fatalf("busiest node consumes %d blocks, too few to test", most)
	}
	cfg := paperTSEConfig(w.Options().Nodes, 8)
	for _, tc := range []struct{ entries, want int }{
		{0, 0}, {most + 1, 0}, {most, 0}, {most - 1, most - 1}, {1, 1},
	} {
		cfg.CMOBEntries = tc.entries
		if got := data.canonical(cfg); got.CMOBEntries != tc.want {
			t.Errorf("CMOB %d: canonical CMOB %d, want %d", tc.entries, got.CMOBEntries, tc.want)
		}
	}
}

// figureSweeps returns every sweep figure's config list for one workload.
func figureSweeps(w *Workspace, data *WorkloadData) [][]tse.Config {
	return [][]tse.Config{
		fig7Configs(w.Options().Nodes),
		fig8Configs(w.Options().Nodes),
		fig9Configs(w.Options().Nodes),
		fig10Configs(w.Options().Nodes, data.Generator.Timing().Lookahead),
	}
}

// TestMemoizedCellsMatchEvaluateTSE: run Figures 7-10 one after another
// through one workspace, so later figures read cells earlier ones produced,
// and every cell must still deep-equal its own
// EvaluateTSE pass. It runs at the goldens' size on every workload of
// testWorkspace and at 16 nodes on db2 and em3d.
func TestMemoizedCellsMatchEvaluateTSE(t *testing.T) {
	workspaces := []*Workspace{
		testWorkspace(t),
		NewWorkspace(Options{Nodes: 16, Scale: 0.05, Seed: 1, Workloads: []string{"db2", "em3d"}}),
	}
	for _, w := range workspaces {
		for _, name := range w.WorkloadNames() {
			data, err := w.Data(name)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for fig, cfgs := range figureSweeps(w, data) {
				total += len(cfgs)
				cells, err := sweepCells(w, data, cfgs)
				if err != nil {
					t.Fatal(err)
				}
				for i, cfg := range cfgs {
					if want, _ := analysis.EvaluateTSE(cfg, data.Trace); cells[i] != want {
						t.Errorf("%d nodes %s fig%d cell %d: memoized %+v != EvaluateTSE %+v",
							w.Options().Nodes, name, fig+7, i, cells[i], want)
					}
				}
			}
			if distinct := memoCells(w, data); distinct >= total {
				t.Errorf("%d nodes %s: %d memo entries for %d cells, want shared cells evaluated once",
					w.Options().Nodes, name, distinct, total)
			}
		}
	}
}

// memoCells counts the workspace's memoized cells of one workload.
func memoCells(w *Workspace, data *WorkloadData) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for k := range w.cells {
		if k.data == data {
			n++
		}
	}
	return n
}

// TestSweepCellsSecondCallAddsNoEntry: repeating a sweep reads the memo.
func TestSweepCellsSecondCallAddsNoEntry(t *testing.T) {
	w := testWorkspace(t)
	data, err := w.Data("db2")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := fig8Configs(w.Options().Nodes)
	first, err := sweepCells(w, data, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	n := memoCells(w, data)
	if n != len(cfgs) {
		t.Fatalf("%d memo entries after a %d-cell sweep", n, len(cfgs))
	}
	second, err := sweepCells(w, data, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := memoCells(w, data); got != n {
		t.Errorf("second sweep grew the memo from %d to %d entries", n, got)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cell %d: second sweep %+v != first %+v", i, second[i], first[i])
		}
	}
}

// TestSweepCellsConcurrentOverlap: drivers whose sweeps share cells (Figure
// 7's streams=2 is Figure 8's LA=8) run at once, each waiting on the cells
// the others have in flight, and each gets the per-cell results. Under
// -race a cell written twice or read before it is published is reported.
func TestSweepCellsConcurrentOverlap(t *testing.T) {
	w := testWorkspace(t)
	data, err := w.Data("db2")
	if err != nil {
		t.Fatal(err)
	}
	sweeps := [][]tse.Config{fig7Configs(w.Options().Nodes), fig8Configs(w.Options().Nodes)}
	want := make([][]analysis.CoverageResult, len(sweeps))
	for s, cfgs := range sweeps {
		for _, cfg := range cfgs {
			cov, _ := analysis.EvaluateTSE(cfg, data.Trace)
			want[s] = append(want[s], cov)
		}
	}
	const callers = 8
	got := make([][]analysis.CoverageResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c], errs[c] = sweepCells(w, data, sweeps[c%len(sweeps)])
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		for i, cov := range got[c] {
			if cov != want[c%len(sweeps)][i] {
				t.Errorf("caller %d cell %d: %+v != %+v", c, i, cov, want[c%len(sweeps)][i])
			}
		}
	}
	if n, distinct := memoCells(w, data), len(sweeps[0])+len(sweeps[1])-1; n != distinct {
		t.Errorf("%d memo entries, want %d distinct cells", n, distinct)
	}
}

// TestSweepCellsErrorReachesEveryWaiter: concurrent callers of a failing
// cell all get its error and none hangs. The failed walk leaves the memo,
// so a valid cell that shared it is evaluated afresh later.
func TestSweepCellsErrorReachesEveryWaiter(t *testing.T) {
	w := testWorkspace(t)
	data, err := w.Data("db2")
	if err != nil {
		t.Fatal(err)
	}
	valid := fig8Configs(w.Options().Nodes)[0]
	invalid := valid
	invalid.Lookahead = 0
	cfgs := []tse.Config{valid, invalid}

	const callers = 2
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			_, err := sweepCells(w, data, cfgs)
			errs <- err
		}()
	}
	timeout := time.After(time.Minute)
	for c := 0; c < callers; c++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("a caller of an invalid cell got no error")
			}
		case <-timeout:
			t.Fatal("a caller of an invalid cell hung")
		}
	}
	if n := memoCells(w, data); n != 0 {
		t.Errorf("%d memo entries after failed sweeps, want 0", n)
	}
	cells, err := sweepCells(w, data, []tse.Config{valid})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := analysis.EvaluateTSE(valid, data.Trace); cells[0] != want {
		t.Errorf("valid cell after a failed sweep: %+v != %+v", cells[0], want)
	}
}
