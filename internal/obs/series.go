package obs

// Domain time series: windowed samplers for simulation state over the event
// stream. The registry's counters describe the ENGINE (decode throughput,
// ring occupancy); a Series describes the SIMULATION — coverage, CMOB/SVB
// occupancy, discard rate, latency quantiles — as a curve over the trace
// instead of a single end-of-run scalar, which is what the paper's Figures
// 7–10 are actually about.
//
// A Series is a fixed-capacity ring of epoch samples keyed by event sequence
// number: consumers record a sample whenever the pipeline's chunk-boundary
// pump says one is due (Ready), the newest samples are kept when the ring
// overflows, and the final end-of-stream sample is always taken, so the last
// point of a completed run carries exactly the cumulative state the final
// report is computed from. A SeriesSet is the named lookup-or-create
// collection the engine attaches per-consumer series to, mirroring Registry.
//
// Like the rest of the package, nil receivers are valid no-ops: a nil
// *SeriesSet hands out nil *Series, and Ready/Record on a nil Series cost a
// nil check and nothing else (pinned by TestNopAllocs). Snapshots are
// deterministic: the name map and per-sample value maps marshal with sorted
// keys, so equal state encodes to identical bytes.

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultSeriesCapacity is the sample ring capacity of a new Series: the
// most recent samples kept per consumer.
const DefaultSeriesCapacity = 1024

// DefaultSeriesPoints is the whole-run sample count an auto-computed epoch
// interval targets (events / DefaultSeriesPoints); callers with a known
// total event count use it to fit a full run inside the ring with room to
// spare.
const DefaultSeriesPoints = 256

// SeriesPoint is one epoch sample: the sequence number of the last event
// reflected in the sample, plus the sampled values by name.
type SeriesPoint struct {
	Seq    uint64             `json:"seq"`
	Values map[string]float64 `json:"values"`
}

// Series is one consumer's windowed time series. Safe for concurrent use;
// the nil Series is a valid no-op.
type Series struct {
	mu       sync.Mutex
	interval uint64
	points   []SeriesPoint // ring storage
	start    int           // index of the oldest retained point
	count    int           // retained points
	evicted  uint64        // points dropped over capacity
	last     uint64        // seq of the newest recorded point
	any      bool          // at least one point recorded
}

func newSeries(interval uint64) *Series {
	return &Series{interval: interval, points: make([]SeriesPoint, DefaultSeriesCapacity)}
}

// Ready reports whether a sample at seq is due: the first sample of the
// series, an epoch-interval crossing, or — when final is set — the
// end-of-stream flush. A seq at or before the newest recorded point is never
// due (the final flush after a boundary sample at the same seq dedupes
// here). Nil-safe: the nil Series is never ready.
func (s *Series) Ready(seq uint64, final bool) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.any {
		return true
	}
	if seq <= s.last {
		return false
	}
	return final || seq-s.last >= s.interval
}

// Record appends one sample, evicting the oldest when the ring is full. The
// caller decides when via Ready; Record itself never filters. Nil-safe.
func (s *Series) Record(seq uint64, values map[string]float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := SeriesPoint{Seq: seq, Values: values}
	if s.count < len(s.points) {
		s.points[(s.start+s.count)%len(s.points)] = p
		s.count++
	} else {
		s.points[s.start] = p
		s.start = (s.start + 1) % len(s.points)
		s.evicted++
	}
	s.last = seq
	s.any = true
}

// Len returns the retained sample count (0 on the nil Series).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Evicted returns the samples dropped over capacity (0 on the nil Series).
func (s *Series) Evicted() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Points returns a copy of the retained samples in ascending seq order.
func (s *Series) Points() []SeriesPoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SeriesPoint, s.count)
	for i := 0; i < s.count; i++ {
		out[i] = s.points[(s.start+i)%len(s.points)]
	}
	return out
}

// SeriesData is the exported state of one Series.
type SeriesData struct {
	// Evicted counts samples dropped over the ring capacity (the retained
	// window is the newest Points).
	Evicted uint64 `json:"evicted,omitempty"`
	// Points are the retained samples in ascending seq order.
	Points []SeriesPoint `json:"points"`
}

// SeriesSnapshot is a point-in-time copy of a SeriesSet, shaped for JSON.
// Map keys (series names, sample value names) marshal sorted, so equal state
// encodes to identical bytes.
type SeriesSnapshot struct {
	// Interval is the epoch interval in events (0 = every pump).
	Interval uint64 `json:"interval"`
	// Series maps consumer label to its sampled curve.
	Series map[string]SeriesData `json:"series"`
}

// SeriesSet is a named collection of Series, one per pipeline consumer. Like
// Registry, lookups create on first use and the nil *SeriesSet is the no-op
// default, handing out nil Series.
type SeriesSet struct {
	mu       sync.Mutex
	interval uint64
	series   map[string]*Series
}

// NewSeriesSet returns an empty SeriesSet with the default ring capacity and
// a zero interval (sample at every pump) — callers that know the total event
// count set a real epoch interval via SetInterval/EnsureInterval.
func NewSeriesSet() *SeriesSet {
	return &SeriesSet{series: make(map[string]*Series)}
}

// SetInterval sets the epoch interval, in events, for every current and
// future Series of the set. Nil-safe.
func (ss *SeriesSet) SetInterval(n uint64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.interval = n
	for _, s := range ss.series {
		s.mu.Lock()
		s.interval = n
		s.mu.Unlock()
	}
}

// EnsureInterval sets the epoch interval only if none has been set yet —
// the seam for auto-computed intervals that must not override an explicit
// choice. Nil-safe.
func (ss *SeriesSet) EnsureInterval(n uint64) {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	unset := ss.interval == 0
	ss.mu.Unlock()
	if unset {
		ss.SetInterval(n)
	}
}

// Interval returns the current epoch interval (0 on the nil SeriesSet).
func (ss *SeriesSet) Interval() uint64 {
	if ss == nil {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.interval
}

// Series returns the series registered under name, creating it on first use.
// On the nil SeriesSet it returns the nil (no-op) Series.
func (ss *SeriesSet) Series(name string) *Series {
	if ss == nil {
		return nil
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s, ok := ss.series[name]
	if !ok {
		s = newSeries(ss.interval)
		ss.series[name] = s
	}
	return s
}

// Snapshot captures every series. On the nil SeriesSet it returns an empty
// (but non-nil-mapped) snapshot.
func (ss *SeriesSet) Snapshot() SeriesSnapshot {
	snap := SeriesSnapshot{Series: map[string]SeriesData{}}
	if ss == nil {
		return snap
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	snap.Interval = ss.interval
	for name, s := range ss.series {
		snap.Series[name] = SeriesData{Evicted: s.Evicted(), Points: s.Points()}
	}
	return snap
}

// WriteJSON writes the set's snapshot as indented JSON.
func (ss *SeriesSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ss.Snapshot())
}

// WriteFile writes the set's snapshot as indented JSON to path, atomically
// (see WriteFileAtomic).
func (ss *SeriesSet) WriteFile(path string) error {
	return WriteFileAtomic(path, ss.WriteJSON)
}
