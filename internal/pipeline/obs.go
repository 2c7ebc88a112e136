package pipeline

// Engine instrumentation. When Config.Metrics or Config.Tracer is set, Run
// reports what the fan-out actually did — events/chunks decoded, ring slot
// occupancy, per-consumer cursor lag and stall time, backpressure wait
// distributions, and one trace span per stage
// (the decode pass, each decoded chunk, every consumer). With both nil
// (the default) the engine builds no engineObs at all and every hook below
// is a nil-receiver no-op: the un-instrumented path costs a pointer check
// and allocates nothing (pinned by obs.TestNopAllocs and
// TestObsDisabledAllocs).
//
// Metric names (all under the "pipeline." prefix; <label> is the consumer's
// Config.ConsumerNames entry, or its index):
//
//	pipeline.events_decoded            counter  events decoded by the producer
//	pipeline.chunks_decoded            counter  chunks broadcast
//	pipeline.decode_ns                 counter  producer wall time
//	pipeline.decode_events_per_sec     gauge    decode throughput at finish
//	pipeline.wall_ns                   counter  whole-Run wall time
//	pipeline.producer.stall_ns         counter  producer blocked on backpressure
//	pipeline.producer.wait_ns          histogram per-wait backpressure distribution
//	pipeline.consumer_wait_ns          histogram per-wait chunk-wait distribution (all consumers)
//	pipeline.ring.occupancy            gauge    ring slots in flight
//	pipeline.ring.occupancy_max        gauge    peak ring occupancy
//	pipeline.consumer.<label>.events   counter  events delivered to the consumer
//	pipeline.consumer.<label>.stall_ns counter  consumer blocked waiting for chunks
//	pipeline.consumer.<label>.lag_max  gauge    peak cursor lag behind the producer, in chunks
//
// Trace lanes: lane 0 is the producer (spans "decode" and per-chunk
// "chunk"), lane i+1 is consumer i (one span per consumer, with events and
// events_per_sec args) — which is exactly the per-cell throughput view a
// sweep needs.

import (
	"fmt"
	"time"

	"tsm/internal/obs"
)

// engineObs bundles the pre-resolved metric handles of one Run. The nil
// *engineObs is the disabled default; every method is nil-safe.
type engineObs struct {
	tracer *obs.Tracer

	eventsDecoded   *obs.Counter
	chunksDecoded   *obs.Counter
	decodeNs        *obs.Counter
	decodeRate      *obs.Gauge
	wallNs          *obs.Counter
	producerStallNs *obs.Counter
	producerWait    *obs.Histogram
	consumerWait    *obs.Histogram
	ringOcc         *obs.Gauge
	ringOccMax      *obs.Gauge

	consumers []consumerObs
}

// consumerObs is one consumer's handles.
type consumerObs struct {
	label   string
	events  *obs.Counter
	stallNs *obs.Counter
	lagMax  *obs.Gauge
}

// consumerLabel returns consumer i's label — its ConsumerNames entry, or its
// index — shared by the metric/trace names and the per-consumer Series.
func (c Config) consumerLabel(i int) string {
	if i < len(c.ConsumerNames) && c.ConsumerNames[i] != "" {
		return c.ConsumerNames[i]
	}
	return fmt.Sprintf("%d", i)
}

// newObs resolves the handles for n consumers, or returns nil when the
// configuration requests no instrumentation.
func (c Config) newObs(n int) *engineObs {
	if c.Metrics == nil && c.Tracer == nil {
		return nil
	}
	m := c.Metrics
	o := &engineObs{
		tracer:          c.Tracer,
		eventsDecoded:   m.Counter("pipeline.events_decoded"),
		chunksDecoded:   m.Counter("pipeline.chunks_decoded"),
		decodeNs:        m.Counter("pipeline.decode_ns"),
		decodeRate:      m.Gauge("pipeline.decode_events_per_sec"),
		wallNs:          m.Counter("pipeline.wall_ns"),
		producerStallNs: m.Counter("pipeline.producer.stall_ns"),
		producerWait:    m.Histogram("pipeline.producer.wait_ns"),
		consumerWait:    m.Histogram("pipeline.consumer_wait_ns"),
		ringOcc:         m.Gauge("pipeline.ring.occupancy"),
		ringOccMax:      m.Gauge("pipeline.ring.occupancy_max"),
		consumers:       make([]consumerObs, n),
	}
	c.Tracer.NameLane(0, "producer")
	for i := range o.consumers {
		label := c.consumerLabel(i)
		o.consumers[i] = consumerObs{
			label:   label,
			events:  m.Counter("pipeline.consumer." + label + ".events"),
			stallNs: m.Counter("pipeline.consumer." + label + ".stall_ns"),
			lagMax:  m.Gauge("pipeline.consumer." + label + ".lag_max"),
		}
		c.Tracer.NameLane(i+1, "consumer "+label)
	}
	return o
}

// enabled reports whether any instrumentation is attached.
func (o *engineObs) enabled() bool { return o != nil }

// label returns consumer i's metric/trace label ("" when disabled).
func (o *engineObs) label(i int) string {
	if o == nil {
		return ""
	}
	return o.consumers[i].label
}

// decoded records one broadcast chunk of n events.
func (o *engineObs) decoded(n int) {
	if o == nil {
		return
	}
	o.eventsDecoded.Add(uint64(n))
	o.chunksDecoded.Inc()
}

// producerDone records the producer's total wall time and finishing
// throughput.
func (o *engineObs) producerDone(elapsed time.Duration) {
	if o == nil {
		return
	}
	o.decodeNs.Add(uint64(elapsed))
	if s := elapsed.Seconds(); s > 0 {
		o.decodeRate.Set(int64(float64(o.eventsDecoded.Value()) / s))
	}
}

// producerStall records one backpressure wait: the slowest cursor holding
// the next ring slot.
func (o *engineObs) producerStall(d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.producerStallNs.Add(uint64(d))
	o.producerWait.Observe(uint64(d))
}

// consumerStall records consumer id blocking until the next chunk arrived.
func (o *engineObs) consumerStall(id int, d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.consumers[id].stallNs.Add(uint64(d))
	o.consumerWait.Observe(uint64(d))
}

// consumerChunk records a chunk of n events delivered to consumer id, with
// the cursor's current lag behind the producer head (in chunks).
func (o *engineObs) consumerChunk(id, n int, lag uint64) {
	if o == nil {
		return
	}
	o.consumers[id].events.Add(uint64(n))
	o.consumers[id].lagMax.SetMax(int64(lag))
}

// ringOccupancy records the in-flight slot count after a publish.
func (o *engineObs) ringOccupancy(occ uint64) {
	if o == nil {
		return
	}
	o.ringOcc.Set(int64(occ))
	o.ringOccMax.SetMax(int64(occ))
}

// beginSpan opens a stage span (no-op without a tracer).
func (o *engineObs) beginSpan(name, cat string, lane int) *obs.SpanHandle {
	if o == nil {
		return nil
	}
	return o.tracer.Begin(name, cat, lane)
}

// tracing reports whether span emission is on (guards the per-chunk spans,
// which would otherwise pay a time.Now per chunk for nothing).
func (o *engineObs) tracing() bool { return o != nil && o.tracer != nil }

// runDone records the whole-Run wall time.
func (o *engineObs) runDone(start time.Time) {
	if o == nil {
		return
	}
	o.wallNs.Add(uint64(time.Since(start)))
}

// consumerSpanEnd completes consumer id's span with throughput args.
func (o *engineObs) consumerSpanEnd(id int, sp *obs.SpanHandle) {
	if o == nil || sp == nil {
		return
	}
	events := o.consumers[id].events.Value()
	sp.Arg("events", events)
	if s := sp.Elapsed().Seconds(); s > 0 {
		sp.Arg("events_per_sec", uint64(float64(events)/s))
	}
	sp.End()
}
