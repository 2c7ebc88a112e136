package experiments

import (
	"reflect"
	"sync"
	"testing"
)

func testWorkspaceOptions() Options {
	return Options{Nodes: 4, Scale: 0.04, Seed: 2, Workloads: []string{"em3d", "db2", "zeus"}}
}

// TestDataGeneratesOnce: concurrent Data calls for the same workload must
// share one generated trace (sync.Once semantics), and calls for different
// workloads must not corrupt each other. Concurrent paper calls share the
// workload's timing pair the same way; under -race a second simulation
// writing the shared pair would be reported.
func TestDataGeneratesOnce(t *testing.T) {
	w := NewWorkspace(testWorkspaceOptions())
	const callers = 8
	names := w.WorkloadNames()
	got := make([][]*WorkloadData, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, name := range names {
				d, err := w.Data(name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, p, err := w.paper(name); err != nil || p.withTSE.TSE.Consumptions == 0 {
					t.Errorf("%s: timing pair %v, %v", name, p, err)
					return
				}
				got[c] = append(got[c], d)
			}
		}(c)
	}
	wg.Wait()
	for c := 1; c < callers; c++ {
		for i := range names {
			if got[c][i] != got[0][i] {
				t.Fatalf("caller %d got a different *WorkloadData for %s: trace regenerated", c, names[i])
			}
		}
	}
}

func TestPrefetchPopulatesWorkspace(t *testing.T) {
	w := NewWorkspace(testWorkspaceOptions())
	if err := w.Prefetch(); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.WorkloadNames() {
		d, err := w.Data(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Consumptions == 0 {
			t.Fatalf("%s: no consumptions after Prefetch", name)
		}
	}
	bad := NewWorkspace(Options{Nodes: 4, Scale: 0.04, Seed: 2, Workloads: []string{"em3d"}})
	if _, err := bad.Data("nope"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestRunAllMatchesSerial: the parallel experiment runner must return, in
// input order, exactly the tables a serial loop produces.
func TestRunAllMatchesSerial(t *testing.T) {
	exps := All()

	serialW := NewWorkspace(testWorkspaceOptions())
	want := make([]Table, len(exps))
	for i, exp := range exps {
		tbl, err := exp.Run(serialW)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		want[i] = tbl
	}

	parallelW := NewWorkspace(testWorkspaceOptions())
	got, err := RunAll(parallelW, exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tables, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: parallel table differs from serial:\n%s\nvs\n%s",
				exps[i].ID, got[i].String(), want[i].String())
		}
	}
}
