package tsm

import (
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/workload"
)

func testOpts() Options {
	return Options{Nodes: 4, Scale: 0.05, Seed: 9}
}

// TestWorkloadsAndExperiments pins the registries behind the facade's
// name lookups: the default suite, every registered workload (the suite
// plus the two mixes, last) and every experiment id.
func TestWorkloadsAndExperiments(t *testing.T) {
	if len(workload.Names()) != 10 {
		t.Fatalf("workload.Names() = %v", workload.Names())
	}
	all := workload.AllNames()
	if len(all) != 12 {
		t.Fatalf("workload.AllNames() = %v", all)
	}
	if all[10] != "mix" || all[11] != "mix-sci-com" {
		t.Fatalf("workload.AllNames() should end with the mixes: %v", all)
	}
	if len(experiments.All()) != 16 || len(experiments.IDs()) != 16 {
		t.Fatalf("experiments.IDs() = %v", experiments.IDs())
	}
}

func TestGenerateTraceUnknownWorkload(t *testing.T) {
	if _, _, err := GenerateTrace("nope", testOpts()); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestOptionsValidate(t *testing.T) {
	// Zero values select defaults and stay valid.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options should validate, got %v", err)
	}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"negative nodes", Options{Nodes: -4}, "Nodes"},
		{"too many nodes", Options{Nodes: mem.MaxNodes + 1}, "Nodes"},
		{"negative scale", Options{Scale: -0.5}, "Scale"},
		{"NaN scale", Options{Scale: math.NaN()}, "Scale"},
		{"infinite scale", Options{Scale: math.Inf(1)}, "Scale"},
		{"negative lookahead", Options{Lookahead: -8}, "Lookahead"},
		{"lookahead past the FIFO entry bound", Options{Lookahead: 1 << 12}, "Lookahead"},
	}
	for _, c := range cases {
		err := c.opts.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the bad field %q", c.name, err, c.want)
		}
	}
}

// TestOptionsValidationPropagates: every facade entry point that can report
// errors must reject invalid options instead of silently normalizing them.
func TestOptionsValidationPropagates(t *testing.T) {
	bad := Options{Nodes: -1}
	if _, _, err := GenerateTrace("em3d", bad); err == nil {
		t.Error("GenerateTrace should reject negative nodes")
	}
	if _, _, err := StreamTrace("em3d", bad, &stream.TraceSink{}); err == nil {
		t.Error("StreamTrace should reject negative nodes")
	}
	tr, gen, err := GenerateTrace("em3d", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTrace(t.TempDir()+"/x.tsm", tr, gen, bad); err == nil {
		t.Error("SaveTrace should reject negative nodes")
	}
	if _, err := EvaluateTSE(tr, gen, Options{Scale: -1}); err == nil {
		t.Error("EvaluateTSE should reject negative scale")
	}
	if _, err := ComparePrefetchers(tr, gen, Options{Lookahead: -2}); err == nil {
		t.Error("ComparePrefetchers should reject negative lookahead")
	}
	if _, err := RunExperiment("table1", bad); err == nil {
		t.Error("RunExperiment should reject negative nodes")
	}
	if _, err := RunExperiments([]string{"table1"}, bad); err == nil {
		t.Error("RunExperiments should reject negative nodes")
	}
}

// TestNodeLimit: node counts beyond mem.MaxNodes are an error at every
// facade entry point, never a panic inside the coherence engine, and the
// largest supported machine still generates.
func TestNodeLimit(t *testing.T) {
	over := Options{Nodes: 100, Scale: 0.05}
	if _, _, err := GenerateTrace("em3d", over); err == nil {
		t.Error("GenerateTrace accepted 100 nodes")
	}
	if _, _, err := StreamTrace("em3d", over, &stream.TraceSink{}); err == nil {
		t.Error("StreamTrace accepted 100 nodes")
	}
	if _, err := RunExperiment("fig6", over); err == nil {
		t.Error("RunExperiment accepted 100 nodes")
	}
	tr, _, err := GenerateTrace("em3d", Options{Nodes: mem.MaxNodes, Scale: 0.02})
	if err != nil || tr.ConsumptionCount() == 0 {
		t.Fatalf("%d-node em3d: %d consumptions, err %v", mem.MaxNodes, tr.ConsumptionCount(), err)
	}
}

// TestTraceHeaderBeyondMaxNodesIsCorrupt: a trace file whose header claims
// more nodes than the directory supports fails at open with ErrCorrupt on
// every load and replay path, instead of panicking later in evaluation.
func TestTraceHeaderBeyondMaxNodesIsCorrupt(t *testing.T) {
	tr, gen, err := GenerateTrace("em3d", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/em3d.tsm"
	if err := SaveTrace(path, tr, gen, testOpts()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic (4), version (1), name length (1), "em3d" (4), nodes.
	const nodesAt = 4 + 1 + 1 + len("em3d")
	if data[nodesAt] != byte(testOpts().Nodes) {
		t.Fatalf("node count byte = %d, want %d", data[nodesAt], testOpts().Nodes)
	}
	data[nodesAt] = 100
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadTrace(path); !errors.Is(err, stream.ErrCorrupt) {
		t.Errorf("LoadTrace err = %v, want ErrCorrupt", err)
	}
	for _, rc := range []ReplayConfig{{}, {DecodeWorkers: 2}, {Mmap: true}} {
		if _, err := EvaluateTSEFileWith(path, rc, Instrumentation{}); !errors.Is(err, stream.ErrCorrupt) {
			t.Errorf("EvaluateTSEFileWith(%+v) err = %v, want ErrCorrupt", rc, err)
		}
		if _, err := EvaluateAllFileWith(path, rc, Instrumentation{}); !errors.Is(err, stream.ErrCorrupt) {
			t.Errorf("EvaluateAllFileWith(%+v) err = %v, want ErrCorrupt", rc, err)
		}
	}
}

// TestRunExperimentRejectsRepeatAndLookahead: experiments fix their own run
// lengths and lookaheads, so the facade reports a non-default Repeat or
// Lookahead by name instead of silently ignoring it. The defaults (0, and
// Repeat 1) still run.
func TestRunExperimentRejectsRepeatAndLookahead(t *testing.T) {
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Nodes: 4, Scale: 0.05, Repeat: 2}, "Repeat"},
		{Options{Nodes: 4, Scale: 0.05, Lookahead: 8}, "Lookahead"},
	} {
		if _, err := RunExperiment("table1", c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunExperiment(%+v) err = %v, want an error naming %s", c.opts, err, c.want)
		}
		if _, err := RunExperiments([]string{"table1"}, c.opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("RunExperiments(%+v) err = %v, want an error naming %s", c.opts, err, c.want)
		}
	}
	for _, repeat := range []float64{0, 1} {
		if _, err := RunExperiment("table1", Options{Nodes: 4, Scale: 0.05, Repeat: repeat}); err != nil {
			t.Errorf("RunExperiment with Repeat %g: %v", repeat, err)
		}
	}
}

func TestGenerateAndEvaluateTSE(t *testing.T) {
	tr, gen, err := GenerateTrace("em3d", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConsumptionCount() < 500 {
		t.Fatalf("trace too small: %d consumptions", tr.ConsumptionCount())
	}
	rep, err := EvaluateTSE(tr, gen, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "TSE" || rep.Coverage < 0.5 || rep.Speedup <= 1.0 {
		t.Fatalf("unexpected em3d report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "speedup") {
		t.Fatal("report string should include the speedup")
	}
	if _, err := EvaluateTSE(nil, gen, testOpts()); err == nil {
		t.Fatal("nil trace should error")
	}
}

func TestComparePrefetchers(t *testing.T) {
	tr, gen, err := GenerateTrace("db2", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reports, err := ComparePrefetchers(tr, gen, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4 (stride, G/DC, G/AC, TSE)", len(reports))
	}
	byName := map[string]Report{}
	for _, r := range reports {
		byName[r.Model] = r
	}
	if byName["TSE"].Coverage <= byName["Stride"].Coverage {
		t.Fatalf("TSE (%v) should beat stride (%v) on db2", byName["TSE"].Coverage, byName["Stride"].Coverage)
	}
	if _, err := ComparePrefetchers(nil, gen, testOpts()); err == nil {
		t.Fatal("nil trace should error")
	}
}

func TestCorrelationOpportunity(t *testing.T) {
	tr, _, err := GenerateTrace("moldyn", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	curve, err := CorrelationOpportunity(tr, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 16 {
		t.Fatalf("curve has %d points, want 16", len(curve))
	}
	if curve[0] < 0.5 {
		t.Fatalf("moldyn correlation at ±1 = %v, want high", curve[0])
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Fatal("opportunity curve must be monotone")
		}
	}
}

// TestInMemoryModelsRejectOutOfRangeNodes: a hand-built trace with an event
// from a node outside [0, Options.Nodes) is an error naming the event and
// the node in every in-memory entry point — never a model's index panic,
// and never an opportunity curve that silently drops the event. Options the
// facade rejects elsewhere are rejected here too.
func TestInMemoryModelsRejectOutOfRangeNodes(t *testing.T) {
	opts := Options{Nodes: 4}
	gen, err := GeneratorFor(TraceMeta{Workload: "db2", Nodes: 4, Scale: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	build := func(node mem.NodeID, kind trace.EventKind) *Trace {
		tr := &Trace{}
		tr.Append(trace.Event{Kind: trace.KindWrite, Node: 0, Block: 64})
		tr.Append(trace.Event{Kind: kind, Node: node, Block: 64, Producer: 0})
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 1, Block: 64, Producer: 0})
		return tr
	}
	entries := []struct {
		name string
		run  func(*Trace, Options) error
	}{
		{"EvaluateTSE", func(tr *Trace, o Options) error { _, err := EvaluateTSE(tr, gen, o); return err }},
		{"ComparePrefetchers", func(tr *Trace, o Options) error { _, err := ComparePrefetchers(tr, gen, o); return err }},
		{"CorrelationOpportunity", func(tr *Trace, o Options) error { _, err := CorrelationOpportunity(tr, o); return err }},
	}
	cases := []struct {
		name string
		tr   *Trace
		opts Options
		want string
	}{
		{"consumption from node 5 of 4", build(5, trace.KindConsumption), opts, "event 1 from node 5 outside [0,4)"},
		{"consumption from node 4 of 4", build(4, trace.KindConsumption), opts, "event 1 from node 4 outside [0,4)"},
		{"write from node 7 of 4", build(7, trace.KindWrite), opts, "event 1 from node 7 outside [0,4)"},
		{"negative node", build(-1, trace.KindConsumption), opts, "event 1 from node -1 outside [0,4)"},
		{"too many nodes", build(1, trace.KindConsumption), Options{Nodes: 100}, "Nodes"},
		{"nil trace", nil, opts, "requires a trace"},
	}
	for _, e := range entries {
		for _, c := range cases {
			t.Run(e.name+"/"+c.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				err := e.run(c.tr, c.opts)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error = %v, want one containing %q", err, c.want)
				}
			})
		}
	}
	// The in-range trace still evaluates in every entry point.
	for _, e := range entries {
		if err := e.run(build(3, trace.KindConsumption), opts); err != nil {
			t.Fatalf("%s rejected an in-range trace: %v", e.name, err)
		}
	}
}

func TestRunExperiment(t *testing.T) {
	out, err := RunExperiment("table1", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2D torus") {
		t.Fatalf("table1 output missing interconnect row:\n%s", out)
	}
	if _, err := RunExperiment("fig999", testOpts()); err == nil {
		t.Fatal("unknown experiment should error")
	}
}
