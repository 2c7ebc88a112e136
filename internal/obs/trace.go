package obs

// Stage tracing: lightweight span records (stage name, category, lane,
// start/duration, free-form args) collected by a Tracer and exportable as a
// chrome://tracing-compatible JSON trace (the "Trace Event Format" consumed
// by chrome://tracing, Perfetto and speedscope). The pipeline emits one span
// per stage — the decode pass, each per-chunk decode, every consumer — so a
// sweep's concurrency structure becomes a picture: which cell lagged, where
// the producer stalled, how long each stage ran.
//
// Like the metrics core, the nil *Tracer is the no-op default: Begin on a
// nil Tracer returns a nil *SpanHandle whose Arg/End methods do nothing, so
// un-traced runs pay a nil check and nothing else.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// DefaultSpanLimit bounds the spans a Tracer retains so paper-scale runs
// (millions of chunks) cannot grow the trace without bound; spans beyond the
// limit are counted and reported in the exported trace instead of stored.
const DefaultSpanLimit = 1 << 17

// Span is one completed trace span.
type Span struct {
	// Name is the span label shown on the timeline ("decode", "LA=8").
	Name string
	// Cat is the span category ("pipeline", "consumer", "cli").
	Cat string
	// Lane is the horizontal track (chrome tid) the span renders on; the
	// pipeline uses lane 0 for the producer and lane i+1 for consumer i.
	Lane int
	// Start is the span start, relative to the Tracer's epoch.
	Start time.Duration
	// Dur is the span duration.
	Dur time.Duration
	// Args carries span-scoped values ("events", "events_per_sec").
	Args map[string]any
}

// Tracer collects span records. Safe for concurrent use; the nil Tracer is
// a valid no-op.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []Span
	lanes   map[int]string
	dropped uint64
}

// NewTracer returns an empty Tracer that retains up to DefaultSpanLimit
// spans. Its epoch (the zero point of every span's Start) is the call time.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), lanes: map[int]string{}}
}

// NameLane labels a lane (chrome thread track) in the exported trace, e.g.
// lane 0 = "producer/decode", lane 3 = "consumer LA=8".
func (t *Tracer) NameLane(lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// SpanHandle is an in-flight span started by Begin. The nil SpanHandle is a
// valid no-op.
type SpanHandle struct {
	t     *Tracer
	span  Span
	start time.Time
}

// Begin starts a span on the given lane. On the nil Tracer it returns the
// nil (no-op) SpanHandle.
func (t *Tracer) Begin(name, cat string, lane int) *SpanHandle {
	if t == nil {
		return nil
	}
	now := time.Now()
	return &SpanHandle{
		t:     t,
		span:  Span{Name: name, Cat: cat, Lane: lane, Start: now.Sub(t.epoch)},
		start: now,
	}
}

// Arg attaches a key/value pair to the span and returns the handle for
// chaining.
func (s *SpanHandle) Arg(key string, value any) *SpanHandle {
	if s == nil {
		return nil
	}
	if s.span.Args == nil {
		s.span.Args = make(map[string]any, 4)
	}
	s.span.Args[key] = value
	return s
}

// Elapsed returns the time since the span began (0 on the nil handle).
func (s *SpanHandle) Elapsed() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.start)
}

// End completes the span and records it on the Tracer.
func (s *SpanHandle) End() {
	if s == nil {
		return
	}
	s.span.Dur = time.Since(s.start)
	t := s.t
	t.mu.Lock()
	if len(t.spans) < DefaultSpanLimit {
		t.spans = append(t.spans, s.span)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Record appends an externally timed span (used by tests and by callers that
// already measured a stage).
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < DefaultSpanLimit {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns the number of spans discarded over the span limit.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one entry of the Trace Event Format's traceEvents array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the Trace Event Format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the recorded spans as a chrome://tracing-compatible
// JSON trace: one complete ("ph":"X") event per span, timestamps and
// durations in microseconds, lanes exported as named threads of a single
// process. Loadable directly in chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteChrome(w io.Writer) error {
	var spans []Span
	lanes := map[int]string{}
	var dropped uint64
	if t != nil {
		t.mu.Lock()
		spans = append(spans, t.spans...)
		for k, v := range t.lanes {
			lanes[k] = v
		}
		dropped = t.dropped
		t.mu.Unlock()
	}
	laneIDs := make([]int, 0, len(lanes))
	for lane := range lanes {
		laneIDs = append(laneIDs, lane)
	}
	sort.Ints(laneIDs)
	events := make([]chromeEvent, 0, len(spans)+len(lanes))
	for _, lane := range laneIDs {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": lanes[lane]},
		})
	}
	for _, sp := range spans {
		events = append(events, chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: sp.Lane, Args: sp.Args,
		})
	}
	if dropped > 0 {
		events = append(events, chromeEvent{
			Name: "spans_dropped_over_limit", Ph: "M", Pid: 1, Tid: 0,
			Args: map[string]any{"dropped": dropped},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteFile writes the chrome trace to path, atomically (see
// WriteFileAtomic): a killed run leaves the previous file or the complete
// new one, never a truncated trace.
func (t *Tracer) WriteFile(path string) error {
	return WriteFileAtomic(path, t.WriteChrome)
}
