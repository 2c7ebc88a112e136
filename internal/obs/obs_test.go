package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

// TestCounterGaugeBasics pins the elementary metric semantics.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter is not lookup-or-create: second handle differs")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	g.SetMax(2)
	if got := g.Value(); got != 4 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax(9) = %d, want 9", got)
	}
}

// TestHistogramBucketEdges pins the log-bucket boundaries: bucket 0 holds
// exactly 0, bucket i holds [2^(i-1), 2^i-1], and the top bucket absorbs
// MaxUint64.
func TestHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v  uint64
		le uint64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{3, 3},
		{4, 7},
		{7, 7},
		{8, 15},
		{1 << 20, 1<<21 - 1},
		{1<<21 - 1, 1<<21 - 1},
		{1 << 63, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64},
	}
	for _, tc := range cases {
		var h Histogram
		h.Observe(tc.v)
		s := h.snapshot()
		if s.Count != 1 || s.Sum != tc.v {
			t.Fatalf("Observe(%d): count=%d sum=%d", tc.v, s.Count, s.Sum)
		}
		if len(s.Buckets) != 1 || s.Buckets[0].Le != tc.le || s.Buckets[0].N != 1 {
			t.Fatalf("Observe(%d): buckets=%+v, want one bucket le=%d", tc.v, s.Buckets, tc.le)
		}
	}
}

// TestHistogramMean covers the aggregate fields over several observations.
func TestHistogramMean(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 10} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 4 || s.Sum != 16 {
		t.Fatalf("count=%d sum=%d, want 4/16", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 4 {
		t.Fatalf("mean=%g, want 4", got)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean should be 0")
	}
}

// TestHistogramQuantiles pins the interpolated quantile estimates against
// hand-computed values on known bucket layouts.
func TestHistogramQuantiles(t *testing.T) {
	// All mass in the zero bucket: every quantile is 0.
	var h0 Histogram
	h0.Observe(0)
	h0.Observe(0)
	if s := h0.snapshot(); s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("zero-bucket quantiles = %+v", s)
	}

	// 10 observations in bucket le=7 (span [4,7]): q interpolates linearly
	// across the span — Quantile(0.5) lands at 4 + 3*0.5 = 5.5.
	var h1 Histogram
	for i := 0; i < 10; i++ {
		h1.Observe(5)
	}
	s1 := h1.snapshot()
	if got := s1.Quantile(0.5); got != 5.5 {
		t.Fatalf("single-bucket P50 = %g, want 5.5", got)
	}
	if got := s1.Quantile(0); got != 4 {
		t.Fatalf("Quantile(0) = %g, want bucket lower bound 4", got)
	}
	if got := s1.Quantile(1); got != 7 {
		t.Fatalf("Quantile(1) = %g, want bucket upper bound 7", got)
	}

	// Mass split across buckets: 90 in le=1, 10 in le=15 (span [8,15]).
	// Rank 50 stays in the first bucket; rank 99 is the 9th of 10 in the
	// second: 8 + 7*(9/10) = 14.3.
	var h2 Histogram
	for i := 0; i < 90; i++ {
		h2.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(9)
	}
	s2 := h2.snapshot()
	if s2.P50 < 0.5 || s2.P50 > 1 {
		t.Fatalf("two-bucket P50 = %g, want within le=1 bucket", s2.P50)
	}
	if got := s2.Quantile(0.99); got != 14.3 {
		t.Fatalf("two-bucket P99 = %g, want 14.3", got)
	}
	// Estimates never escape the true bucket's bounds.
	if s2.P99 < 8 || s2.P99 > 15 {
		t.Fatalf("P99 = %g escaped bucket [8,15]", s2.P99)
	}

	// Out-of-range q clamps; the empty snapshot is 0 everywhere.
	if got := s1.Quantile(-1); got != 4 {
		t.Fatalf("Quantile(-1) = %g, want clamp to 4", got)
	}
	if got := s1.Quantile(2); got != 7 {
		t.Fatalf("Quantile(2) = %g, want clamp to 7", got)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}

	// The JSON snapshot carries the quantiles.
	var buf bytes.Buffer
	r := NewRegistry()
	rh := r.Histogram("lat")
	for i := 0; i < 10; i++ {
		rh.Observe(5)
	}
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Histograms["lat"].P50; got != 5.5 {
		t.Fatalf("JSON p50 = %g, want 5.5", got)
	}
}

// TestSnapshotDeterminism: registering the same metrics in different orders
// and snapshotting twice must produce byte-identical JSON.
func TestSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *Registry {
		r := NewRegistry()
		for _, name := range order {
			r.Counter("count." + name).Add(uint64(len(name)))
			r.Gauge("gauge." + name).Set(int64(len(name)))
			r.Histogram("hist." + name).Observe(uint64(len(name)))
		}
		return r
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})

	marshal := func(r *Registry) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ja, jb := marshal(a), marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots of equal state differ:\n%s\n--\n%s", ja, jb)
	}
	if !bytes.Equal(marshal(a), ja) {
		t.Fatal("re-snapshotting unchanged state changed the bytes")
	}

	var decoded Snapshot
	if err := json.Unmarshal(ja, &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if decoded.Counters["count.alpha"] != 5 {
		t.Fatalf("count.alpha = %d, want 5", decoded.Counters["count.alpha"])
	}
	if decoded.Histograms["hist.beta"].Count != 1 {
		t.Fatalf("hist.beta count = %d, want 1", decoded.Histograms["hist.beta"].Count)
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race in CI. The final counter and
// histogram totals are exact because the operations are atomic.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared")
			g := r.Gauge("peak")
			h := r.Histogram("values")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(uint64(i))
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["shared"]; got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["peak"]; got != workers*perWorker-1 {
		t.Fatalf("peak gauge = %d, want %d", got, workers*perWorker-1)
	}
	if got := s.Histograms["values"].Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestNilRegistryIsNoop: the nil registry and its nil handles are safe and
// inert, and snapshots of it are valid (empty) JSON.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(5)
	g.Add(1)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z")
	h.Observe(123)
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("nil registry WriteJSON: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("nil registry snapshot is not JSON: %v", err)
	}
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

// TestNopAllocs pins the no-op default to zero allocations: every metric
// operation on nil handles, and Begin on the nil tracer, must not allocate.
// This is the property that lets the pipeline instrument unconditionally —
// the disabled path costs a nil check, not garbage.
func TestNopAllocs(t *testing.T) {
	var r *Registry
	var tr *Tracer
	var ss *SeriesSet
	allocs := testing.AllocsPerRun(1000, func() {
		c := r.Counter("c")
		c.Inc()
		c.Add(3)
		g := r.Gauge("g")
		g.Set(1)
		g.SetMax(2)
		h := r.Histogram("h")
		h.Observe(7)
		sp := tr.Begin("x", "y", 0)
		sp.End()
		var p *Progress
		p.Stop()
		s := ss.Series("x")
		s.Ready(1, false)
		s.Record(1, nil)
	})
	if allocs != 0 {
		t.Fatalf("no-op instrumentation allocates %v B-ish allocs/op, want 0", allocs)
	}
}

// BenchmarkNop is the benchmark form of TestNopAllocs: the disabled
// instrumentation path at 0 B/op, 0 allocs/op.
func BenchmarkNop(b *testing.B) {
	b.ReportAllocs()
	var r *Registry
	var tr *Tracer
	var ss *SeriesSet
	for i := 0; i < b.N; i++ {
		c := r.Counter("c")
		c.Inc()
		r.Gauge("g").SetMax(int64(i))
		r.Histogram("h").Observe(uint64(i))
		tr.Begin("x", "y", 0).End()
		ss.Series("s").Ready(uint64(i), false)
	}
}

// BenchmarkEnabled measures the enabled fast path (pre-resolved handles, as
// the pipeline uses them): one atomic op per call.
func BenchmarkEnabled(b *testing.B) {
	b.ReportAllocs()
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(uint64(i))
	}
}
