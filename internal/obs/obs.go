// Package obs is the repository's zero-dependency observability subsystem:
// a lock-cheap metrics core (atomic counters, gauges and log-bucketed
// histograms collected in a Registry snapshotable to JSON), lightweight
// stage tracing (span records exportable as a chrome://tracing-compatible
// JSON trace, trace.go), a periodic progress meter (progress.go) and the
// CLIs' output-file helpers: a pre-run writability check and atomic JSON
// writes (atomic.go). It serves nothing over the network; profiles come
// from `go test -cpuprofile`.
//
// The engine now runs paper-scale sweeps through a multi-stage concurrent
// pipeline — decode, ring broadcast, N consumers — and this package is how
// that pipeline stops running dark: ring occupancy, slowest-cursor stalls,
// decode throughput and per-cell progress all become inspectable numbers
// instead of ns/op greps after the fact.
//
// Everything here is built around a no-op default so un-instrumented paths
// cost approximately nothing: a nil *Registry hands out nil metric handles,
// and every method on a nil *Counter, *Gauge, *Histogram, *Tracer or
// *Progress is a nil-check-and-return — no allocation, no atomic, no lock
// (pinned by TestNopAllocs and BenchmarkNop). Instrumented code therefore
// never guards its metric calls; it just calls.
//
// Metrics are identified by flat dotted names ("pipeline.events_decoded",
// "pipeline.consumer.LA=8.stall_ns"). A Registry hands out one handle per
// name (Counter/Gauge/Histogram are lookup-or-create), handles are safe for
// concurrent use, and Snapshot produces a deterministic value: JSON
// marshalling sorts the name maps, so two snapshots of equal state encode to
// identical bytes.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter is a
// valid no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge is a valid no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// SetMax raises the gauge to v if v exceeds the current value (a running
// maximum, e.g. peak ring occupancy).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i holds the
// observations whose value has bit length i, i.e. bucket 0 holds exactly the
// value 0 and bucket i (i ≥ 1) holds [2^(i-1), 2^i - 1]. 64-bit values need
// 65 buckets.
const histBuckets = 65

// Histogram counts observations in fixed logarithmic (power-of-two) buckets.
// Observing is one atomic add per bucket plus count and sum — no locks, no
// allocation — which keeps it cheap enough for backpressure-wait tracking in
// the broadcast hot path. The nil Histogram is a valid no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// BucketUpperBound returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i - 1 for the rest (math.MaxUint64 for the last).
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// HistogramSnapshot is the exported state of one Histogram: total count and
// sum, interpolated quantile estimates, plus the non-empty buckets in
// ascending bound order.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty histogram bucket: Le is the inclusive upper bound
// of the value range, N the observation count.
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// Mean returns the mean observed value (0 with no observations).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values by
// linear interpolation within the log2 bucket the target rank falls in:
// bucket i ≥ 1 spans [2^(i-1), 2^i - 1], and the estimate assumes the
// bucket's observations are spread evenly over that span (bucket 0 holds
// exactly the value 0). The estimate is therefore never outside the true
// bucket's bounds. Returns 0 with no observations.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		n := float64(b.N)
		if cum+n >= rank {
			lo, hi := bucketLowerBound(b.Le), float64(b.Le)
			if n == 0 {
				return hi
			}
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	if len(s.Buckets) == 0 {
		return 0
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// bucketLowerBound returns the inclusive lower bound of the bucket whose
// inclusive upper bound is le: 0 for the zero bucket, 2^(i-1) for the rest.
func bucketLowerBound(le uint64) float64 {
	if le == 0 {
		return 0
	}
	return float64(le/2 + 1)
}

// snapshot captures the histogram. The reads are individually atomic but not
// mutually: a concurrent Observe may land between them, which is fine for
// monitoring — quiescent snapshots (every producer finished) are exact.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: BucketUpperBound(i), N: n})
		}
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Snapshot captures the histogram's exported state (zero on the nil
// Histogram). See snapshot for the atomicity caveat.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

// Registry is a named collection of metrics. The zero value is NOT a
// registry — use NewRegistry; the nil *Registry is the no-op default: it
// hands out nil handles whose methods do nothing and allocate nothing, so
// un-instrumented runs pay only a nil check per metric call.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. On the nil Registry it returns the nil (no-op) Counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// On the nil Registry it returns the nil (no-op) Gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. On the nil Registry it returns the nil (no-op) Histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a Registry's state, shaped for JSON.
// Go's JSON encoder writes map keys in sorted order, so a Snapshot of equal
// state always marshals to identical bytes (pinned by tests).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every registered metric. On the nil Registry it returns
// an empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Names returns every registered metric name, sorted, across all kinds.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the registry snapshot as indented JSON to path,
// atomically: the snapshot lands in a temp file renamed over path only once
// complete, so a killed run never leaves truncated JSON (see
// WriteFileAtomic).
func (r *Registry) WriteFile(path string) error {
	return WriteFileAtomic(path, r.WriteJSON)
}
