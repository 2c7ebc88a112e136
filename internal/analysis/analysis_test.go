package analysis

import (
	"math/rand"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/prefetch"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// perfectlyCorrelatedTrace: node 0 consumes blocks 0..n-1 in order, then
// node 1 consumes the identical sequence.
func perfectlyCorrelatedTrace(n int) *trace.Trace {
	tr := &trace.Trace{}
	for node := 0; node < 2; node++ {
		for i := 0; i < n; i++ {
			tr.Append(trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(node), Block: mem.BlockAddr(i * 64)})
		}
	}
	return tr
}

// uncorrelatedTrace: node 0 consumes blocks in order, node 1 consumes random
// blocks from a large disjoint-order permutation.
func uncorrelatedTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 1, Block: mem.BlockAddr(i * 64)})
	}
	return tr
}

func TestCorrelationDistancePerfect(t *testing.T) {
	tr := perfectlyCorrelatedTrace(500)
	res := CorrelationDistance(tr, 2)
	if res.Total != 1000 {
		t.Fatalf("Total = %d, want 1000", res.Total)
	}
	// Node 1's consumptions (half the total) follow node 0's order exactly,
	// so roughly half of all consumptions are perfectly correlated.
	if got := res.CumulativeFraction(1); got < 0.45 || got > 0.55 {
		t.Fatalf("CumulativeFraction(1) = %v, want ~0.5", got)
	}
	// Cumulative fractions are monotone in d.
	prev := 0.0
	for d := 1; d <= MaxCorrelationDistance; d++ {
		c := res.CumulativeFraction(d)
		if c < prev {
			t.Fatalf("cumulative fraction decreased at d=%d", d)
		}
		prev = c
	}
}

func TestCorrelationDistanceUncorrelated(t *testing.T) {
	res := CorrelationDistance(uncorrelatedTrace(2000, 3), 2)
	if got := res.CumulativeFraction(16); got > 0.15 {
		t.Fatalf("uncorrelated trace shows %.2f correlation, want near zero", got)
	}
}

func TestCorrelationDistanceBounds(t *testing.T) {
	res := CorrelationDistance(perfectlyCorrelatedTrace(100), 2)
	if res.CumulativeFraction(0) != 0 {
		t.Fatal("distance 0 should report 0")
	}
	if res.CumulativeFraction(100) != res.CumulativeFraction(MaxCorrelationDistance) {
		t.Fatal("distances beyond the max should clamp")
	}
	empty := CorrelationResult{}
	if empty.CumulativeFraction(4) != 0 {
		t.Fatal("empty result should report 0")
	}
}

func TestCorrelationDistanceSmallReordering(t *testing.T) {
	// Node 1 follows node 0's order but with adjacent pairs swapped: not
	// perfectly correlated, but within distance 2.
	n := 400
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	for i := 0; i < n; i += 2 {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 1, Block: mem.BlockAddr((i + 1) * 64)})
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 1, Block: mem.BlockAddr(i * 64)})
	}
	res := CorrelationDistance(tr, 2)
	// Node 1's consumptions are all correlated once small reorderings are
	// allowed (node 1 contributes half of all consumptions), whereas the
	// strictly "perfect" fraction is smaller.
	within1 := res.CumulativeFraction(1)
	within4 := res.CumulativeFraction(4)
	if within4 < 0.45 {
		t.Fatalf("swapped order should be largely within distance 4, got %v", within4)
	}
	if within4 <= within1 {
		t.Fatalf("distance-4 fraction (%v) should exceed distance-1 fraction (%v)", within4, within1)
	}
}

func TestEvaluateModelStride(t *testing.T) {
	// A strided consumption stream should give the stride prefetcher high
	// coverage through the generic evaluation harness.
	tr := &trace.Trace{}
	for i := 0; i < 200; i++ {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	res := EvaluateModel(prefetch.NewStride(1), tr)
	if res.Name != "Stride" {
		t.Fatalf("Name = %q", res.Name)
	}
	if res.Coverage() < 0.8 {
		t.Fatalf("stride coverage on strided trace = %v, want high", res.Coverage())
	}
	if res.Consumptions != 200 {
		t.Fatalf("consumptions = %d", res.Consumptions)
	}
	if res.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestEvaluateTSEOutperformsLocalPrefetchersOnMigratoryStreams(t *testing.T) {
	// Recreate the paper's qualitative Figure 12 result on a small
	// migratory trace: the consumption sequence is irregular (no strides)
	// but recurs across nodes, so TSE covers it while the stride prefetcher
	// and a node-local GHB cannot.
	rng := rand.New(rand.NewSource(11))
	seq := make([]mem.BlockAddr, 400)
	for i := range seq {
		seq[i] = mem.BlockAddr(uint64(rng.Intn(1<<20)) &^ 63)
	}
	tr := &trace.Trace{}
	for node := 0; node < 4; node++ {
		for _, b := range seq {
			tr.Append(trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(node), Block: b})
		}
	}

	tseCfg := tse.DefaultConfig()
	tseCfg.Nodes = 4
	tseRes, full := EvaluateTSE(tseCfg, tr)

	strideRes := EvaluateModel(prefetch.NewStride(4), tr)
	ghbRes := EvaluateModel(prefetch.NewGHB(prefetch.GAC, 4), tr)

	if tseRes.Coverage() < 0.6 {
		t.Fatalf("TSE coverage = %v, want high on recurring migratory streams", tseRes.Coverage())
	}
	if strideRes.Coverage() > tseRes.Coverage()/2 {
		t.Fatalf("stride coverage %v should be far below TSE %v", strideRes.Coverage(), tseRes.Coverage())
	}
	if ghbRes.Coverage() >= tseRes.Coverage() {
		t.Fatalf("node-local GHB coverage %v should not reach TSE %v", ghbRes.Coverage(), tseRes.Coverage())
	}
	if full.Consumptions != tseRes.Consumptions {
		t.Fatal("full TSE result and coverage summary disagree")
	}
}

func TestStreamLengthCDF(t *testing.T) {
	cfg := tse.DefaultConfig()
	cfg.Nodes = 2
	sys := tse.NewSystem(cfg)
	tr := perfectlyCorrelatedTrace(300)
	res := sys.Run(tr)
	buckets := []int{0, 1} // 0, 1, 2, 4, ..., 128K
	for v := 2; v <= 128*1024; v *= 2 {
		buckets = append(buckets, v)
	}
	cdf := StreamLengthCDF(res, buckets)
	if len(cdf) != len(buckets) {
		t.Fatalf("CDF length %d != buckets %d", len(cdf), len(buckets))
	}
	prev := -1.0
	for i, v := range cdf {
		if v < prev-1e-9 || v < 0 || v > 1+1e-9 {
			t.Fatalf("CDF not monotone in [0,1] at bucket %d: %v", buckets[i], v)
		}
		prev = v
	}
	if cdf[len(cdf)-1] < 0.999 {
		t.Fatalf("CDF should reach 1.0, got %v", cdf[len(cdf)-1])
	}
}

func TestCoverageResultZeroDivision(t *testing.T) {
	r := CoverageResult{}
	if r.Coverage() != 0 || r.DiscardRate() != 0 {
		t.Fatal("zero-consumption result should report zeros")
	}
}
