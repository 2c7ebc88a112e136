package tsm

import (
	"math"
	"strings"
	"testing"

	"tsm/internal/stream"
)

func testOpts() Options {
	return Options{Nodes: 4, Scale: 0.05, Seed: 9}
}

func TestWorkloadsAndExperiments(t *testing.T) {
	if len(Workloads()) != 10 {
		t.Fatalf("Workloads() = %v", Workloads())
	}
	if len(AllWorkloads()) != 12 {
		t.Fatalf("AllWorkloads() = %v", AllWorkloads())
	}
	if AllWorkloads()[10] != "mix" || AllWorkloads()[11] != "mix-sci-com" {
		t.Fatalf("AllWorkloads() should end with the mixes: %v", AllWorkloads())
	}
	if len(Experiments()) != 16 {
		t.Fatalf("Experiments() = %v", Experiments())
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
		{"negative scale", Options{Scale: -0.5}, "Scale"},
		{"NaN scale", Options{Scale: math.NaN()}, "Scale"},
		{"infinite scale", Options{Scale: math.Inf(1)}, "Scale"},
		{"negative lookahead", Options{Lookahead: -8}, "Lookahead"},
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
	curve := CorrelationOpportunity(tr, testOpts())
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
