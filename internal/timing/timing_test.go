package timing

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/coherence"
	"tsm/internal/config"
	"tsm/internal/mem"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// migratoryTrace: node 0 produces, nodes 1..n-1 consume the same long
// sequence in turn.
func migratoryTrace(nodes, length int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < length; i++ {
		tr.Append(trace.Event{Kind: trace.KindWrite, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	for n := 1; n < nodes; n++ {
		for i := 0; i < length; i++ {
			tr.Append(trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(n), Block: mem.BlockAddr(i * 64)})
		}
	}
	return tr
}

func scientificProfile() workload.TimingProfile {
	return workload.TimingProfile{
		BusyFraction: 0.20, OtherStallFraction: 0.10, CoherentStallFraction: 0.70,
		MLP: 2.0, Lookahead: 18,
	}
}

func commercialProfile() workload.TimingProfile {
	return workload.TimingProfile{
		BusyFraction: 0.30, OtherStallFraction: 0.38, CoherentStallFraction: 0.32,
		MLP: 1.3, Lookahead: 8,
	}
}

func baseParams(nodes int, prof workload.TimingProfile) Params {
	sysCfg := config.DefaultSystem()
	sysCfg.Nodes = nodes
	return Params{System: sysCfg, Profile: prof, Nodes: nodes, SegmentConsumptions: 100}
}

func tseParams(nodes int, prof workload.TimingProfile) Params {
	p := baseParams(nodes, prof)
	cfg := tse.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Lookahead = prof.Lookahead
	p.TSE = &cfg
	return p
}

func TestValidate(t *testing.T) {
	p := baseParams(4, scientificProfile())
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	p.Nodes = 0
	if p.Validate() == nil {
		t.Fatal("zero nodes should fail")
	}
	p = baseParams(4, workload.TimingProfile{})
	if p.Validate() == nil {
		t.Fatal("empty profile should fail")
	}
	p = tseParams(4, scientificProfile())
	bad := tse.Config{}
	p.TSE = &bad
	if p.Validate() == nil {
		t.Fatal("invalid TSE config should fail")
	}
	if _, err := Simulate(&trace.Trace{}, Params{}); err == nil {
		t.Fatal("Simulate with invalid params should error")
	}
}

func TestBaselineBreakdownMatchesProfile(t *testing.T) {
	prof := commercialProfile()
	tr := migratoryTrace(4, 1000)
	res, err := Simulate(tr, baseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	busy, other, coherent := res.Breakdown.Fractions()
	// The baseline breakdown is constructed from the profile; allow a few
	// percent of rounding/bursting slack.
	if diff(busy, prof.BusyFraction) > 0.05 || diff(other, prof.OtherStallFraction) > 0.05 || diff(coherent, prof.CoherentStallFraction) > 0.05 {
		t.Fatalf("baseline breakdown (%.2f,%.2f,%.2f) far from profile (%.2f,%.2f,%.2f)",
			busy, other, coherent, prof.BusyFraction, prof.OtherStallFraction, prof.CoherentStallFraction)
	}
	if res.Consumptions != 3000 {
		t.Fatalf("consumptions = %d, want 3000", res.Consumptions)
	}
	if res.FullCovered != 0 || res.PartialCovered != 0 {
		t.Fatal("baseline run must not report coverage")
	}
	if len(res.SegmentCycles) == 0 {
		t.Fatal("segments should be recorded")
	}
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestTSERunReducesCoherentStalls(t *testing.T) {
	prof := scientificProfile()
	tr := migratoryTrace(4, 2000)
	base, err := Simulate(tr, baseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	withTSE, err := Simulate(tr, tseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	if withTSE.Breakdown.CoherentStallCycles >= base.Breakdown.CoherentStallCycles {
		t.Fatalf("TSE coherent stalls %d not below base %d",
			withTSE.Breakdown.CoherentStallCycles, base.Breakdown.CoherentStallCycles)
	}
	// Busy and other-stall work is identical between runs.
	if withTSE.Breakdown.BusyCycles != base.Breakdown.BusyCycles ||
		withTSE.Breakdown.OtherStallCycles != base.Breakdown.OtherStallCycles {
		t.Fatal("non-coherent work must be identical across runs")
	}
	s := Speedup(base, withTSE)
	if s <= 1.2 {
		t.Fatalf("speedup = %v, want substantial speedup on perfectly correlated streams", s)
	}
	if withTSE.FullCoverage()+withTSE.PartialCoverage() < 0.5 {
		t.Fatalf("coverage too low: full=%v partial=%v", withTSE.FullCoverage(), withTSE.PartialCoverage())
	}
	mean, ci := SpeedupConfidence(base, withTSE)
	if mean <= 1.0 {
		t.Fatalf("confidence mean speedup = %v, want > 1", mean)
	}
	if ci < 0 {
		t.Fatalf("negative confidence interval %v", ci)
	}
}

func TestTimelinessDependsOnConsumptionRate(t *testing.T) {
	// With a high coherent-stall fraction the inter-consumption gap is
	// short, so newly located streams are more likely to be partially
	// covered; with a low fraction (long gaps) more arrive in time. The
	// partial share of covered consumptions should therefore shrink when
	// gaps grow.
	tr := migratoryTrace(4, 2000)
	fast := workload.TimingProfile{BusyFraction: 0.05, OtherStallFraction: 0.05, CoherentStallFraction: 0.90, MLP: 4, Lookahead: 8}
	slow := workload.TimingProfile{BusyFraction: 0.60, OtherStallFraction: 0.25, CoherentStallFraction: 0.15, MLP: 1.2, Lookahead: 8}
	fastRes, err := Simulate(tr, tseParams(4, fast))
	if err != nil {
		t.Fatal(err)
	}
	slowRes, err := Simulate(tr, tseParams(4, slow))
	if err != nil {
		t.Fatal(err)
	}
	partialShare := func(r Result) float64 {
		covered := r.FullCovered + r.PartialCovered
		if covered == 0 {
			return 0
		}
		return float64(r.PartialCovered) / float64(covered)
	}
	if partialShare(fastRes) <= partialShare(slowRes) {
		t.Fatalf("partial share fast=%v should exceed slow=%v", partialShare(fastRes), partialShare(slowRes))
	}
}

func TestMeasuredMLPTracksProfile(t *testing.T) {
	tr := migratoryTrace(4, 1000)
	prof := scientificProfile() // MLP 2.0
	res, err := Simulate(tr, baseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredMLP < 1.5 || res.MeasuredMLP > 2.5 {
		t.Fatalf("measured MLP = %v, want ~2", res.MeasuredMLP)
	}
}

func TestEndToEndWithWorkloadTrace(t *testing.T) {
	// Full pipeline on a small DB2-like workload: generate accesses,
	// classify with the coherence engine, then compare base and TSE timing.
	wcfg := workload.Config{Nodes: 4, Seed: 3, Scale: 0.05, Geometry: mem.DefaultGeometry()}
	spec, _ := workload.ByName("db2")
	gen := spec.New(wcfg)
	eng := coherence.New(coherence.Config{Nodes: 4, Geometry: wcfg.Geometry, PointersPerEntry: 2})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConsumptionCount() < 500 {
		t.Skip("workload too small for timing test")
	}
	prof := gen.Timing()
	base, err := Simulate(tr, baseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	withTSE, err := Simulate(tr, tseParams(4, prof))
	if err != nil {
		t.Fatal(err)
	}
	s := Speedup(base, withTSE)
	if s < 1.0 {
		t.Fatalf("TSE slowed down the commercial workload: speedup %v", s)
	}
	if s > 2.0 {
		t.Fatalf("commercial speedup %v implausibly high", s)
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{BusyCycles: 10, OtherStallCycles: 30, CoherentStallCycles: 60}
	if b.Total() != 100 {
		t.Fatal("Total wrong")
	}
	busy, other, coherent := b.Fractions()
	if busy != 0.1 || other != 0.3 || coherent != 0.6 {
		t.Fatal("Fractions wrong")
	}
	if x, y, z := (Breakdown{}).Fractions(); x != 0 || y != 0 || z != 0 {
		t.Fatal("empty breakdown fractions should be zero")
	}
	if Speedup(Result{}, Result{}) != 0 {
		t.Fatal("speedup with zero denominator should be 0")
	}
	if (Result{}).FullCoverage() != 0 || (Result{}).PartialCoverage() != 0 {
		t.Fatal("empty result coverages should be 0")
	}
	m, ci := SpeedupConfidence(Result{}, Result{})
	if m != 0 || ci != 0 {
		t.Fatal("empty confidence should be zeros")
	}
}

// TestConsumerMatchesSimulate: the timing Consumer, sweeping 7-event
// column chunks off the pipeline ring, must be bit-identical to the
// per-event Simulate oracle, for both the baseline and the TSE
// configuration, on a real workload trace.
func TestConsumerMatchesSimulate(t *testing.T) {
	gen := workload.NewEM3D(workload.Config{Nodes: 4, Seed: 11, Scale: 0.05})
	eng := coherence.New(coherence.Config{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	params := []Params{baseParams(4, gen.Timing()), tseParams(4, gen.Timing())}
	consumers := []*Consumer{NewConsumer(params[0]), NewConsumer(params[1])}
	if err := (pipeline.Config{ChunkEvents: 7}).Run(stream.TraceSource(tr), consumers[0], consumers[1]); err != nil {
		t.Fatal(err)
	}
	for ci, p := range params {
		want, err := Simulate(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		got := consumers[ci].Result
		if got.Breakdown != want.Breakdown || got.Consumptions != want.Consumptions ||
			got.FullCovered != want.FullCovered || got.PartialCovered != want.PartialCovered ||
			got.PartialLatencyHidden != want.PartialLatencyHidden || got.MeasuredMLP != want.MeasuredMLP {
			t.Fatalf("consumer %d result %+v differs from Simulate result %+v", ci, got, want)
		}
		if !reflect.DeepEqual(got.TSE, want.TSE) {
			t.Fatalf("consumer %d TSE result %+v differs from Simulate's %+v", ci, got.TSE, want.TSE)
		}
		if len(got.SegmentCycles) != len(want.SegmentCycles) {
			t.Fatalf("consumer %d: segment count %d vs %d", ci, len(got.SegmentCycles), len(want.SegmentCycles))
		}
		for i := range want.SegmentCycles {
			if got.SegmentCycles[i] != want.SegmentCycles[i] {
				t.Fatalf("consumer %d segment %d: %d vs %d", ci, i, got.SegmentCycles[i], want.SegmentCycles[i])
			}
		}
	}
}

// TestTSEResultMatchesEvaluateTSE: the TSE run's own system, which the
// timing model only taps for fetch arrival times, yields exactly the
// trace-driven result of a plain TSE pass (analysis.EvaluateTSE) under the
// paper configuration — coverage, discards, stream-length histogram, traffic
// and CMOB footprint — for every registered workload at 4 and 16 nodes. This
// is what lets one timing run be the coverage source of every report.
func TestTSEResultMatchesEvaluateTSE(t *testing.T) {
	for _, nodes := range []int{4, 16} {
		for _, name := range workload.AllNames() {
			t.Run(fmt.Sprintf("%s/nodes=%d", name, nodes), func(t *testing.T) {
				spec, _ := workload.ByName(name)
				gen := spec.New(workload.Config{Nodes: nodes, Seed: 5, Scale: 0.05, Geometry: mem.DefaultGeometry()})
				eng := coherence.New(coherence.Config{Nodes: nodes, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
				tr, err := eng.RunFrom(gen.Emit)
				if err != nil {
					t.Fatal(err)
				}
				p := baseParams(nodes, gen.Timing())
				base, err := Simulate(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base.TSE, tse.Result{}) {
					t.Fatalf("baseline run reports a TSE result: %+v", base.TSE)
				}
				cfg := config.DefaultSystem().DefaultTSE()
				cfg.Nodes = nodes
				cfg.Lookahead = gen.Timing().Lookahead
				p.TSE = &cfg
				got, err := Simulate(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				_, want := analysis.EvaluateTSE(cfg, tr)
				if want.Consumptions == 0 {
					t.Fatal("trace has no consumptions")
				}
				if !reflect.DeepEqual(got.TSE, want) {
					t.Fatalf("timing run's TSE result %+v != EvaluateTSE %+v", got.TSE, want)
				}
			})
		}
	}
}

// failingSource yields its events, then errors.
type failingSource struct {
	events []trace.Event
	pos    int
}

func (s *failingSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, errSourceBroken
	}
	s.pos++
	return s.events[s.pos-1], nil
}

// TestConsumerPropagatesError: a source error mid-stream reaches every
// timing Consumer on the ring, and Run returns it.
func TestConsumerPropagatesError(t *testing.T) {
	tr := migratoryTrace(2, 50)
	base := NewConsumer(baseParams(2, scientificProfile()))
	withTSE := NewConsumer(tseParams(2, scientificProfile()))
	err := (pipeline.Config{ChunkEvents: 7}).Run(&failingSource{events: tr.Events}, base, withTSE)
	if !errors.Is(err, errSourceBroken) {
		t.Fatalf("err = %v, want errSourceBroken", err)
	}
}

// errSourceBroken is the sentinel error used by failingSource.
var errSourceBroken = errors.New("timing test: source failed")
