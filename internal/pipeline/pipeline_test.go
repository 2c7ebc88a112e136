package pipeline

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// makeEvents builds a deterministic synthetic event stream.
func makeEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		kind := trace.KindConsumption
		if i%7 == 3 {
			kind = trace.KindWrite
		}
		events[i] = trace.Event{
			Seq:      uint64(i),
			Kind:     kind,
			Node:     mem.NodeID(i % 4),
			Block:    mem.BlockAddr(i * 64),
			Producer: mem.NodeID((i + 1) % 4),
		}
	}
	return events
}

// recordConsumer keeps every event it sees (events arrive by value, so
// retaining them is fine) and remembers its terminal error.
type recordConsumer struct {
	events   []trace.Event
	terminal error
}

func (c *recordConsumer) Run(src stream.Source) error {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			c.terminal = err
			return err
		}
		c.events = append(c.events, e)
	}
}

// TestBroadcastParity: every consumer must observe the complete stream in
// decode order, for chunk sizes that divide the stream, that don't, and that
// exceed it.
func TestBroadcastParity(t *testing.T) {
	events := makeEvents(1000)
	t.Run("ring", func(t *testing.T) {
		for _, chunk := range []int{1, 3, 256, 4096} {
			consumers := make([]Consumer, 5)
			records := make([]*recordConsumer, len(consumers))
			for i := range consumers {
				records[i] = &recordConsumer{}
				consumers[i] = records[i]
			}
			cfg := Config{ChunkEvents: chunk, ChunkBuffer: 2}
			if err := cfg.Run(stream.NewSliceSource(events), consumers...); err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			for ci, rec := range records {
				if len(rec.events) != len(events) {
					t.Fatalf("chunk %d consumer %d: saw %d events, want %d", chunk, ci, len(rec.events), len(events))
				}
				for i := range events {
					if rec.events[i] != events[i] {
						t.Fatalf("chunk %d consumer %d: event %d = %+v, want %+v", chunk, ci, i, rec.events[i], events[i])
					}
				}
			}
		}
	})
}

// TestZeroConsumers: a fan-out with no destinations is a no-op that does not
// read the source.
func TestZeroConsumers(t *testing.T) {
	src := &countingSource{src: stream.NewSliceSource(makeEvents(10))}
	if err := Run(src); err != nil {
		t.Fatal(err)
	}
	if n := src.nexts.Load(); n != 0 {
		t.Fatalf("zero-consumer run read the source %d times", n)
	}
}

// TestSingleConsumer: the one-consumer fast path must behave like a plain
// pass over the source.
func TestSingleConsumer(t *testing.T) {
	events := makeEvents(50)
	rec := &recordConsumer{}
	src := &countingSource{src: stream.NewSliceSource(events)}
	if err := Run(src, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != len(events) {
		t.Fatalf("saw %d events, want %d", len(rec.events), len(events))
	}
	if n := src.nexts.Load(); n != int64(len(events)+1) {
		t.Fatalf("source read %d times, want %d (events + one EOF)", n, len(events)+1)
	}
}

// TestEmptyStream: an empty source must deliver a clean immediate EOF to
// every consumer.
func TestEmptyStream(t *testing.T) {
	records := []*recordConsumer{{}, {}, {}}
	if err := Run(stream.NewSliceSource(nil), records[0], records[1], records[2]); err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		if len(rec.events) != 0 || rec.terminal != nil {
			t.Fatalf("consumer %d: events=%d terminal=%v on empty stream", i, len(rec.events), rec.terminal)
		}
	}
}

// countingSource counts Next calls on the way through. The counter is
// atomic so tests may sample it while the producer is still decoding.
type countingSource struct {
	src   stream.Source
	nexts atomic.Int64
}

func (c *countingSource) Next() (trace.Event, error) {
	c.nexts.Add(1)
	return c.src.Next()
}

// endlessSource never ends: used to prove that cancellation, not stream
// exhaustion, is what stops the engine.
type endlessSource struct{ n uint64 }

func (s *endlessSource) Next() (trace.Event, error) {
	s.n++
	return trace.Event{Seq: s.n, Kind: trace.KindConsumption, Block: mem.BlockAddr(s.n)}, nil
}

// failAfter errors after consuming n events.
type failAfter struct {
	n   int
	err error
}

func (c *failAfter) Run(src stream.Source) error {
	for i := 0; i < c.n; i++ {
		if _, err := src.Next(); err != nil {
			return err
		}
	}
	return c.err
}

// TestConsumerErrorCancels: when one consumer fails mid-stream over an
// ENDLESS source, the engine must still terminate promptly — the failure has
// to cancel the producer and every other consumer — returning the failing
// consumer's error, with the bystanders seeing ErrCanceled and no goroutine
// outliving the call.
func TestConsumerErrorCancels(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		before := runtime.NumGoroutine()
		boom := errors.New("boom")
		bystanders := []*recordConsumer{{}, {}}
		done := make(chan error, 1)
		go func() {
			done <- Config{ChunkEvents: 8, ChunkBuffer: 2}.Run(
				&endlessSource{},
				bystanders[0],
				&failAfter{n: 100, err: boom},
				bystanders[1],
			)
		}()
		select {
		case err := <-done:
			if !errors.Is(err, boom) {
				t.Fatalf("Run = %v, want %v", err, boom)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("consumer error did not cancel the pipeline (endless source still running)")
		}
		for i, b := range bystanders {
			if !errors.Is(b.terminal, ErrCanceled) {
				t.Errorf("bystander %d terminal = %v, want ErrCanceled", i, b.terminal)
			}
		}
		assertNoLeak(t, before)
	})
}

// assertNoLeak fails the test if goroutines outlive a Run. All goroutines
// are joined before Run returns; the brief settle allows for the runtime's
// own bookkeeping only.
func assertNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// panicAfter panics after consuming n events.
type panicAfter struct{ n int }

func (c *panicAfter) Run(src stream.Source) error {
	for i := 0; i < c.n; i++ {
		if _, err := src.Next(); err != nil {
			return err
		}
	}
	panic("consumer bug")
}

// TestConsumerPanicRecovered: a consumer that panics mid-stream over an
// ENDLESS source must fail the run, not the process — Run returns a
// ConsumerPanicError naming the consumer and carrying the panic value, the
// bystanders see ErrCanceled, and no goroutine outlives the call. The
// single-consumer direct path recovers the same way.
func TestConsumerPanicRecovered(t *testing.T) {
	before := runtime.NumGoroutine()
	bystanders := []*recordConsumer{{}, {}}
	done := make(chan error, 1)
	go func() {
		cfg := Config{ChunkEvents: 8, ChunkBuffer: 2, ConsumerNames: []string{"a", "bad", "b"}}
		done <- cfg.Run(&endlessSource{}, bystanders[0], &panicAfter{n: 100}, bystanders[1])
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer panic did not cancel the pipeline (endless source still running)")
	}
	var pe *ConsumerPanicError
	if !errors.Is(err, ErrConsumerPanic) || !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want a ConsumerPanicError", err)
	}
	if pe.Consumer != "bad" || pe.Value != "consumer bug" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = {Consumer: %q, Value: %v, %d-byte stack}, want consumer \"bad\" and the panic value", pe.Consumer, pe.Value, len(pe.Stack))
	}
	for i, b := range bystanders {
		if !errors.Is(b.terminal, ErrCanceled) {
			t.Errorf("bystander %d terminal = %v, want ErrCanceled", i, b.terminal)
		}
	}
	assertNoLeak(t, before)

	err = Run(stream.NewSliceSource(makeEvents(10)), &panicAfter{n: 3})
	if !errors.As(err, &pe) || pe.Consumer != "0" {
		t.Fatalf("single-consumer Run = %v, want a ConsumerPanicError for consumer 0", err)
	}
}

// TestDecodeErrorPropagates: a terminal source error must reach every
// consumer as its own terminal error, and Run must return it.
func TestDecodeErrorPropagates(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		corrupt := fmt.Errorf("decode: %w", stream.ErrCorrupt)
		src := &erroringSource{events: makeEvents(100), err: corrupt}
		records := []*recordConsumer{{}, {}, {}}
		err := Config{ChunkEvents: 16}.Run(src, records[0], records[1], records[2])
		if !errors.Is(err, stream.ErrCorrupt) {
			t.Fatalf("Run = %v, want the decode error", err)
		}
		for i, rec := range records {
			if !errors.Is(rec.terminal, stream.ErrCorrupt) {
				t.Errorf("consumer %d terminal = %v, want the decode error", i, rec.terminal)
			}
			if len(rec.events) != 100 {
				t.Errorf("consumer %d saw %d events before the error, want 100", i, len(rec.events))
			}
		}
	})
}

// erroringSource yields its events, then a terminal error instead of EOF.
type erroringSource struct {
	events []trace.Event
	pos    int
	err    error
}

func (s *erroringSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, s.err
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// earlyStop returns nil after n events without draining to EOF; the engine
// must not deadlock on its unreleased cursor.
type earlyStop struct{ n int }

func (c *earlyStop) Run(src stream.Source) error {
	for i := 0; i < c.n; i++ {
		if _, err := src.Next(); err != nil {
			return nil
		}
	}
	return nil
}

// TestEarlyReturnDoesNotWedge: a consumer that stops pulling before EOF must
// not block the producer or the other consumers.
func TestEarlyReturnDoesNotWedge(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		events := makeEvents(5000)
		rec := &recordConsumer{}
		done := make(chan error, 1)
		go func() {
			done <- Config{ChunkEvents: 8, ChunkBuffer: 1}.Run(stream.NewSliceSource(events), &earlyStop{n: 3}, rec)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("early-returning consumer wedged the pipeline")
		}
		if len(rec.events) != len(events) {
			t.Fatalf("full consumer saw %d events, want %d", len(rec.events), len(events))
		}
	})
}

// TestAllEarlyReturnsStopProducer: once EVERY consumer has returned —
// cleanly, before io.EOF — the producer must stop decoding, even over an
// endless source; Run returns nil (no consumer failed).
func TestAllEarlyReturnsStopProducer(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		src := &countingSource{src: &endlessSource{}}
		done := make(chan error, 1)
		go func() {
			done <- Config{ChunkEvents: 8, ChunkBuffer: 2}.Run(src, &earlyStop{n: 3}, &earlyStop{n: 40})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("producer kept decoding an endless source after every consumer returned")
		}
	})
}

// TestBackpressure: the producer must not run unboundedly ahead of a stalled
// consumer — the ring capacity caps the decoded-but-unconsumed events (the
// slowest-cursor backpressure rule).
func TestBackpressure(t *testing.T) {
	t.Run("ring", func(t *testing.T) {
		cfg := Config{ChunkEvents: 10, ChunkBuffer: 2}
		events := makeEvents(100_000)
		src := &countingSource{src: stream.NewSliceSource(events)}
		release := make(chan struct{})
		var stalledSeen int
		stalled := ConsumerFunc(func(s stream.Source) error {
			if _, err := s.Next(); err != nil {
				return err
			}
			stalledSeen++
			<-release // stall with one event consumed
			for {
				if _, err := s.Next(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				stalledSeen++
			}
		})
		fast := &recordConsumer{}
		done := make(chan error, 1)
		go func() { done <- cfg.Run(src, stalled, fast) }()

		// Give the producer every chance to run ahead, then check the
		// window: at most ChunkBuffer queued chunks, one in flight per
		// consumer, and one being assembled (doubled for slack — the
		// point is "hundreds, not the whole 100k trace").
		time.Sleep(200 * time.Millisecond)
		decoded := int(src.nexts.Load())
		bound := (cfg.ChunkBuffer + 2) * cfg.ChunkEvents * 2
		if decoded > bound {
			t.Errorf("producer decoded %d events ahead of a stalled consumer (bound %d)", decoded, bound)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if stalledSeen != len(events) || len(fast.events) != len(events) {
			t.Fatalf("stalled saw %d, fast saw %d, want %d", stalledSeen, len(fast.events), len(events))
		}
	})
}

// chunkedSource is a stream.ChunkSource that hands out its events in fixed
// chunks THROUGH A REUSED BUFFER, like the codec readers do: the returned
// slice is invalid after the next call. The broadcast must copy chunks, so
// consumers still observe pristine events — this pins the bulk-copy fast
// path the producers take for pre-decoded chunks.
type chunkedSource struct {
	events    []trace.Event
	pos       int
	chunk     int
	buf       []trace.Event
	nexts     int // per-event Next calls observed (fast path must avoid them)
	fail      error
	failAfter int // fail after this many chunks when fail != nil
}

func (s *chunkedSource) Next() (trace.Event, error) {
	s.nexts++
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

func (s *chunkedSource) NextChunk() ([]trace.Event, error) {
	if s.fail != nil && s.failAfter == 0 {
		return nil, s.fail
	}
	if s.pos >= len(s.events) {
		return nil, io.EOF
	}
	n := s.chunk
	if rest := len(s.events) - s.pos; n > rest {
		n = rest
	}
	s.buf = append(s.buf[:0], s.events[s.pos:s.pos+n]...)
	s.pos += n
	if s.fail != nil {
		s.failAfter--
	}
	// Scramble the previous hand-out: anyone holding the old slice sees it.
	for i := range s.buf {
		s.buf[i].Seq = s.events[s.pos-n+i].Seq
	}
	return s.buf, nil
}

// TestChunkSourceParity: a ChunkSource feeds the ring through the bulk-copy
// path, and every consumer still observes the exact event stream —
// even though the source reuses its chunk buffer between calls.
func TestChunkSourceParity(t *testing.T) {
	events := makeEvents(1000)
	t.Run("ring", func(t *testing.T) {
		for _, chunk := range []int{1, 13, 256, 4096} {
			src := &chunkedSource{events: events, chunk: chunk}
			consumers := make([]Consumer, 3)
			records := make([]*recordConsumer, len(consumers))
			for i := range consumers {
				records[i] = &recordConsumer{}
				consumers[i] = records[i]
			}
			cfg := Config{ChunkEvents: 64, ChunkBuffer: 2}
			if err := cfg.Run(src, consumers...); err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if src.nexts > 0 {
				t.Fatalf("chunk %d: producer made %d per-event Next calls; ChunkSource fast path not taken", chunk, src.nexts)
			}
			for ci, rec := range records {
				if len(rec.events) != len(events) {
					t.Fatalf("chunk %d consumer %d: saw %d events, want %d", chunk, ci, len(rec.events), len(events))
				}
				for i := range events {
					if rec.events[i] != events[i] {
						t.Fatalf("chunk %d consumer %d: event %d = %+v, want %+v (chunks must be copied out of the reused buffer)", chunk, ci, i, rec.events[i], events[i])
					}
				}
			}
		}
	})
}

// TestChunkSourceErrorPropagates: a terminal error from NextChunk reaches
// every consumer in band, after the events that preceded it.
func TestChunkSourceErrorPropagates(t *testing.T) {
	events := makeEvents(300)
	decodeErr := errors.New("chunk decode failed")
	t.Run("ring", func(t *testing.T) {
		src := &chunkedSource{events: events, chunk: 100, fail: decodeErr, failAfter: 2}
		records := []*recordConsumer{{}, {}}
		err := Config{ChunkBuffer: 2}.Run(src, records[0], records[1])
		if !errors.Is(err, decodeErr) {
			t.Fatalf("err = %v, want the decode error", err)
		}
		for ci, rec := range records {
			if !errors.Is(rec.terminal, decodeErr) {
				t.Fatalf("consumer %d terminal = %v, want the decode error", ci, rec.terminal)
			}
			if len(rec.events) != 200 {
				t.Fatalf("consumer %d saw %d events before the error, want 200", ci, len(rec.events))
			}
		}
	})
}
