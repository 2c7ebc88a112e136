package pipeline

import (
	"io"
	"testing"

	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// samplingConsumer records every pump it receives alongside the event count
// it had processed at that moment, so tests can check that a sample at seq N
// fires only after the consumer consumed exactly the events through N.
type samplingConsumer struct {
	recordConsumer
	series  *obs.Series
	samples []pumpRecord
}

type pumpRecord struct {
	seq       uint64
	final     bool
	processed int
}

func (c *samplingConsumer) AttachSeries(s *obs.Series) { c.series = s }

func (c *samplingConsumer) SampleAt(seq uint64, final bool) {
	if !c.series.Ready(seq, final) {
		return
	}
	c.samples = append(c.samples, pumpRecord{seq: seq, final: final, processed: len(c.events)})
	c.series.Record(seq, map[string]float64{"processed": float64(len(c.events))})
}

// TestSamplingPump: over the ring (and the single-consumer fast path), a
// sampling consumer is pumped at chunk boundaries and flushed at
// end of stream, each sample firing exactly at its boundary (processed ==
// seq+1 for a dense stream) and landing in the per-consumer series under the
// consumer's label.
func TestSamplingPump(t *testing.T) {
	events := makeEvents(1000)
	const chunk = 256
	run := func(t *testing.T, n int) {
		ss := obs.NewSeriesSet()
		consumers := make([]Consumer, n)
		scs := make([]*samplingConsumer, n)
		names := make([]string, n)
		for i := range consumers {
			scs[i] = &samplingConsumer{}
			consumers[i] = scs[i]
			names[i] = "cell-" + string(rune('a'+i))
		}
		cfg := Config{ChunkEvents: chunk, ConsumerNames: names, Series: ss}
		if err := cfg.Run(stream.NewSliceSource(events), consumers...); err != nil {
			t.Fatal(err)
		}
		for i, sc := range scs {
			if len(sc.events) != len(events) {
				t.Fatalf("consumer %d saw %d events, want %d", i, len(sc.events), len(events))
			}
			// 1000 events in 256-chunks → boundaries at seq 255, 511, 767,
			// then one sample at the last event (whether the trailing chunk
			// boundary or the terminal flush records it, Ready dedupes the
			// other — the guarantee is exactly one sample at seq 999 carrying
			// the complete cumulative state).
			want := []pumpRecord{
				{seq: 255, processed: 256},
				{seq: 511, processed: 512},
				{seq: 767, processed: 768},
				{seq: 999, processed: 1000},
			}
			if len(sc.samples) != len(want) {
				t.Fatalf("consumer %d samples = %+v, want %d boundaries", i, sc.samples, len(want))
			}
			for j, w := range want {
				g := sc.samples[j]
				if g.seq != w.seq || g.processed != w.processed {
					t.Fatalf("consumer %d sample %d = %+v, want %+v", i, j, g, w)
				}
			}
			// The samples landed in the set under the consumer's label.
			pts := ss.Series(names[i]).Points()
			if len(pts) != len(want) {
				t.Fatalf("series %q has %d points, want %d", names[i], len(pts), len(want))
			}
			if final := pts[len(pts)-1]; final.Seq != 999 || final.Values["processed"] != 1000 {
				t.Fatalf("series %q final point = %+v", names[i], final)
			}
		}
	}
	t.Run("ring", func(t *testing.T) { run(t, 3) })
	t.Run("single", func(t *testing.T) { run(t, 1) })
}

// TestSamplingRespectsInterval: the epoch interval filters boundary pumps —
// only interval crossings (plus the first and final samples) record.
func TestSamplingRespectsInterval(t *testing.T) {
	events := makeEvents(1000)
	ss := obs.NewSeriesSet()
	ss.SetInterval(500)
	sc := &samplingConsumer{}
	cfg := Config{ChunkEvents: 100, Series: ss, ConsumerNames: []string{"x"}}
	if err := cfg.Run(stream.NewSliceSource(events), sc, &recordConsumer{}); err != nil {
		t.Fatal(err)
	}
	// Boundaries at 99, 199, …, 999: the first (99), the crossing ≥ 599, and
	// the final flush at 999.
	want := []uint64{99, 599, 999}
	if len(sc.samples) != len(want) {
		t.Fatalf("samples = %+v, want seqs %v", sc.samples, want)
	}
	for i, w := range want {
		if sc.samples[i].seq != w {
			t.Fatalf("sample %d seq = %d, want %d", i, sc.samples[i].seq, w)
		}
	}
}

// TestSamplingNilSeries: without Config.Series no sampler is attached and no
// pump fires, whatever the consumer implements.
func TestSamplingNilSeries(t *testing.T) {
	events := makeEvents(100)
	sc := &samplingConsumer{}
	cfg := Config{ChunkEvents: 10}
	if err := cfg.Run(stream.NewSliceSource(events), sc, &recordConsumer{}); err != nil {
		t.Fatal(err)
	}
	if sc.series != nil || len(sc.samples) != 0 {
		t.Fatalf("sampling ran without Config.Series: series=%v samples=%+v", sc.series, sc.samples)
	}
}

// TestSamplingMixedConsumers: only the consumers that implement Sampler get
// series; the rest run unchanged alongside them.
func TestSamplingMixedConsumers(t *testing.T) {
	events := makeEvents(300)
	ss := obs.NewSeriesSet()
	sc := &samplingConsumer{}
	plain := &recordConsumer{}
	cfg := Config{ChunkEvents: 100, Series: ss, ConsumerNames: []string{"smp", "plain"}}
	if err := cfg.Run(stream.NewSliceSource(events), sc, plain); err != nil {
		t.Fatal(err)
	}
	if len(plain.events) != len(events) {
		t.Fatalf("plain consumer saw %d events", len(plain.events))
	}
	if got := ss.Series("smp").Len(); got == 0 {
		t.Fatal("sampling consumer recorded nothing")
	}
	snap := ss.Snapshot()
	if _, ok := snap.Series["plain"]; ok {
		t.Fatal("non-sampler consumer grew a series")
	}
}

// TestSamplingTerminalError: a decode error still flushes a final sample —
// the consumer's last consistent state before the failure.
func TestSamplingTerminalError(t *testing.T) {
	events := makeEvents(250)
	ss := obs.NewSeriesSet()
	t.Run("ring", func(t *testing.T) {
		sc := &samplingConsumer{}
		src := &failingSource{events: events, failAt: len(events)}
		cfg := Config{ChunkEvents: 100, Series: ss, ConsumerNames: []string{"f"}}
		err := cfg.Run(src, sc, &recordConsumer{})
		if err == nil {
			t.Fatal("decode error not reported")
		}
		if len(sc.samples) == 0 {
			t.Fatal("no samples before the failure")
		}
		last := sc.samples[len(sc.samples)-1]
		if last.seq != 249 || last.processed != 250 {
			t.Fatalf("final flush = %+v, want seq 249 with all 250 events", last)
		}
	})
}

// failingSource yields events then a non-EOF terminal error.
type failingSource struct {
	events []trace.Event
	pos    int
	failAt int
}

func (s *failingSource) Next() (trace.Event, error) {
	if s.pos >= s.failAt {
		return trace.Event{}, errDecode
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

var errDecode = io.ErrUnexpectedEOF
