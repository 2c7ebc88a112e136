package pipeline

import (
	"strconv"
	"testing"
	"time"

	"tsm/internal/obs"
	"tsm/internal/stream"
)

// TestObsInvariants runs a ring fan-out at sweep widths and checks
// the metrics snapshot against the engine's own guarantees: every consumer
// received exactly what the producer decoded, stalls fit inside the wall
// time, the chunk count matches the chunk size, and ring occupancy never
// exceeded the configured window.
func TestObsInvariants(t *testing.T) {
	const chunkEvents, chunkBuffer, nEvents = 64, 4, 10_000
	for _, n := range []int{4, 16, 64} {
		events := makeEvents(nEvents)
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		consumers := make([]Consumer, n)
		counts := make([]*drainCount, n)
		for i := range consumers {
			counts[i] = &drainCount{}
			consumers[i] = counts[i]
		}
		cfg := Config{
			ChunkEvents: chunkEvents,
			ChunkBuffer: chunkBuffer,
			Metrics:     reg,
			Tracer:      tr,
		}
		if err := cfg.Run(stream.NewSliceSource(events), consumers...); err != nil {
			t.Fatalf("n=%d: Run: %v", n, err)
		}
		s := reg.Snapshot()

		decoded := s.Counters["pipeline.events_decoded"]
		if decoded != nEvents {
			t.Fatalf("n=%d: events_decoded = %d, want %d", n, decoded, nEvents)
		}
		wantChunks := uint64((nEvents + chunkEvents - 1) / chunkEvents)
		if got := s.Counters["pipeline.chunks_decoded"]; got != wantChunks {
			t.Fatalf("n=%d: chunks_decoded = %d, want %d", n, got, wantChunks)
		}

		wall := s.Counters["pipeline.wall_ns"]
		if wall == 0 {
			t.Fatalf("n=%d: wall_ns not recorded", n)
		}
		if stall := s.Counters["pipeline.producer.stall_ns"]; stall > wall {
			t.Fatalf("n=%d: producer stall %d ns exceeds wall %d ns", n, stall, wall)
		}

		for i, c := range counts {
			if c.n != nEvents {
				t.Fatalf("n=%d: consumer %d drained %d events, want %d", n, i, c.n, nEvents)
			}
			label := labelFor(t, s.Counters, i)
			if got := s.Counters[label+".events"]; got != decoded {
				t.Fatalf("n=%d: %s.events = %d, want events_decoded = %d", n, label, got, decoded)
			}
			if stall := s.Counters[label+".stall_ns"]; stall > wall {
				t.Fatalf("n=%d: %s.stall_ns = %d exceeds wall %d", n, label, stall, wall)
			}
			if lag := s.Gauges[label+".lag_max"]; lag < 1 || lag > chunkBuffer {
				t.Fatalf("n=%d: %s.lag_max = %d, want within [1, %d]", n, label, lag, chunkBuffer)
			}
		}

		if occ := s.Gauges["pipeline.ring.occupancy_max"]; occ < 1 || occ > chunkBuffer {
			t.Fatalf("n=%d: ring.occupancy_max = %d, want within [1, %d]", n, occ, chunkBuffer)
		}
		if rate := s.Gauges["pipeline.decode_events_per_sec"]; rate <= 0 {
			t.Fatalf("n=%d: decode_events_per_sec = %d, want > 0", n, rate)
		}

		// One decode span, one span per chunk, one span per consumer.
		spans := tr.Spans()
		want := 1 + int(wantChunks) + n
		if len(spans) != want {
			t.Fatalf("n=%d: recorded %d spans, want %d", n, len(spans), want)
		}
	}
}

// labelFor resolves consumer i's metric prefix and fails the test if the
// expected default (index) label is missing from the snapshot.
func labelFor(t *testing.T, counters map[string]uint64, i int) string {
	t.Helper()
	label := "pipeline.consumer." + strconv.Itoa(i)
	if _, ok := counters[label+".events"]; !ok {
		t.Fatalf("snapshot has no %s.events counter", label)
	}
	return label
}

// TestObsConsumerNames: ConsumerNames relabel the per-consumer metrics.
func TestObsConsumerNames(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		ChunkEvents:   8,
		ChunkBuffer:   2,
		Metrics:       reg,
		ConsumerNames: []string{"LA=8", ""},
	}
	a, b := &drainCount{}, &drainCount{}
	if err := cfg.Run(stream.NewSliceSource(makeEvents(100)), a, b); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["pipeline.consumer.LA=8.events"]; got != 100 {
		t.Fatalf("named consumer events = %d, want 100", got)
	}
	if got := s.Counters["pipeline.consumer.1.events"]; got != 100 {
		t.Fatalf("index-labelled consumer events = %d, want 100", got)
	}
}

// TestObsSingleConsumer: a lone consumer on the ring still counts the
// stream, keeping events_decoded == per-consumer events in every consumer
// count.
func TestObsSingleConsumer(t *testing.T) {
	reg := obs.NewRegistry()
	c := &drainCount{}
	// 2.5 chunks: the count must include a partial tail chunk.
	if err := (Config{Metrics: reg}).Run(stream.NewSliceSource(makeEvents(2*DefaultChunkEvents+512)), c); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	want := uint64(2*DefaultChunkEvents + 512)
	if got := s.Counters["pipeline.events_decoded"]; got != want {
		t.Fatalf("events_decoded = %d, want %d", got, want)
	}
	if got := s.Counters["pipeline.consumer.0.events"]; got != want {
		t.Fatalf("consumer events = %d, want %d", got, want)
	}
	if s.Counters["pipeline.wall_ns"] == 0 {
		t.Fatal("wall_ns not recorded on the single-consumer path")
	}
}

// TestObsDisabledAllocs pins the contract that lets the engine instrument
// unconditionally: with Metrics and Tracer nil, Run builds no engineObs and
// the per-event overhead is zero allocations beyond the un-instrumented
// engine's own (measured as a delta against a pre-warmed baseline run).
func TestObsDisabledAllocs(t *testing.T) {
	if (Config{}).newObs(3) != nil {
		t.Fatal("newObs without Metrics/Tracer must return nil")
	}
	var o *engineObs
	allocs := testing.AllocsPerRun(1000, func() {
		o.decoded(64)
		o.producerStall(5)
		o.consumerStall(0, 5)
		o.consumerChunk(0, 64, 2)
		o.ringOccupancy(2)
		o.runDone(time.Time{})
		o.beginSpan("x", "y", 0).End()
		o.consumerSpanEnd(0, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs hooks allocate (%v allocs/op), want 0", allocs)
	}
}
