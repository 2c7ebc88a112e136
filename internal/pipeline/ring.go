package pipeline

// The ring broadcast: one shared ring of chunk buffers with a per-consumer
// read cursor. Publishing a chunk is one slot index increment plus one
// broadcast wakeup, however many consumers are attached, and the ring slots'
// backing arrays are reused once every cursor has moved past them, so a
// whole sensitivity sweep — dozens of TSE configurations — rides one decode
// pass with O(ring) chunk memory in total instead of O(chunks): the decode
// pass over an arbitrarily long trace stops being an allocation source at
// all. This is the inter-query sharing idea of Shared Arrangements applied to
// trace replay: maintain one stream, attach N cheap readers.
//
// Semantics, pinned by the engine tests against a slice reference:
//
//   - every consumer observes the events in exact decode order;
//   - the producer never runs more than the ring capacity ahead of the
//     SLOWEST live cursor (slowest-cursor backpressure, bounded memory);
//   - terminal conditions are in band: a consumer drains every chunk
//     published before it observes io.EOF, the producer's decode error, or
//     ErrCanceled after another consumer failed;
//   - the first consumer failure cancels the producer and every other
//     consumer promptly, and no goroutine outlives Run.

import (
	"errors"
	"io"
	"sync"
	"time"

	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// ringState is the shared state of one ring Run: the slot buffers,
// the producer's publish count and the per-consumer cursors, all guarded by
// one mutex with two condition variables (producer waits for a free slot,
// consumers wait for a new chunk or the terminal).
type ringState struct {
	mu       sync.Mutex
	notFull  *sync.Cond // producer: a slot was released or the run stopped
	notEmpty *sync.Cond // consumers: a chunk was published or the run closed

	slots []*bcastChunk // ring of reusable chunk buffers (SoA + AoS view)
	head  uint64        // chunks published so far

	taken    []uint64 // per consumer: chunks handed to its source
	released []uint64 // per consumer: chunks it has finished reading
	done     []bool   // consumer returned; stops constraining backpressure
	ndone    int

	closed   bool  // no more chunks will be published
	terminal error // ending observed after draining (nil means io.EOF)
	stopped  bool  // cancellation: the producer must stop decoding

	o *engineObs // nil when the run is un-instrumented
}

func newRingState(capacity, consumers int, o *engineObs) *ringState {
	r := &ringState{
		slots:    make([]*bcastChunk, capacity),
		taken:    make([]uint64, consumers),
		released: make([]uint64, consumers),
		done:     make([]bool, consumers),
		o:        o,
	}
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// minReleased returns the slowest live cursor — the number of chunks every
// still-running consumer has finished with. Finished consumers are excluded,
// so one early return never wedges the producer. Must hold mu.
func (r *ringState) minReleased() uint64 {
	min := r.head
	for i, rel := range r.released {
		if !r.done[i] && rel < min {
			min = rel
		}
	}
	return min
}

// buffer blocks until the next ring slot is reusable — every live consumer
// has released it — and returns its chunk buffer, emptied, for the producer
// to fill outside the lock. It reports false once decoding is pointless
// (cancellation, or every consumer has returned).
func (r *ringState) buffer(chunkEvents int) (*bcastChunk, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var waited time.Duration
	for {
		if r.stopped || r.ndone == len(r.done) {
			return nil, false
		}
		if r.head-r.minReleased() < uint64(len(r.slots)) {
			break
		}
		if r.o.enabled() {
			// The producer is throttled by the slowest live cursor holding
			// this slot: that wait is the ring's backpressure stall.
			t0 := time.Now()
			r.notFull.Wait()
			waited += time.Since(t0)
		} else {
			r.notFull.Wait()
		}
	}
	r.o.producerStall(waited)
	slot := r.slots[r.head%uint64(len(r.slots))]
	if slot == nil {
		slot = &bcastChunk{}
		r.slots[r.head%uint64(len(r.slots))] = slot
	} else {
		slot.reset()
	}
	return slot, true
}

// publish makes the filled chunk visible to every consumer with a single
// head increment (one slot write, one wakeup — no per-consumer send). It
// reports false if the run was canceled while the producer was filling the
// chunk.
func (r *ringState) publish(chunk *bcastChunk) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || r.ndone == len(r.done) {
		return false
	}
	r.slots[r.head%uint64(len(r.slots))] = chunk
	r.head++
	if r.o.enabled() {
		r.o.ringOccupancy(r.head - r.minReleased())
	}
	r.notEmpty.Broadcast()
	return true
}

// close records the stream's ending. Consumers observe it strictly in band:
// only after draining every published chunk. A nil err is a clean io.EOF.
func (r *ringState) close(err error) {
	r.mu.Lock()
	r.closed = true
	r.terminal = err
	r.notEmpty.Broadcast()
	r.mu.Unlock()
}

// cancel stops the producer at its next slot acquisition or publish. Safe to
// call from any goroutine, any number of times.
func (r *ringState) cancel() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		r.notFull.Broadcast()
	}
	r.mu.Unlock()
}

// finish marks one consumer as returned, releasing its backpressure
// constraint; once every consumer has returned, further decoding serves
// nobody and the producer is canceled.
func (r *ringState) finish(id int) {
	r.mu.Lock()
	if !r.done[id] {
		r.done[id] = true
		r.ndone++
		r.notFull.Signal()
	}
	all := r.ndone == len(r.done)
	r.mu.Unlock()
	if all {
		r.cancel()
	}
}

// take returns the consumer's next chunk, releasing the previous one (the
// consumer has exhausted it — that release is what lets the producer reuse
// the slot's region). A false ok is the in-band ending: err is the
// terminal error, or nil for a clean end of stream.
func (r *ringState) take(id int) (chunk *bcastChunk, err error, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.taken[id] > r.released[id] {
		r.released[id] = r.taken[id]
		r.notFull.Signal()
	}
	var waited time.Duration
	for r.taken[id] == r.head && !r.closed {
		if r.o.enabled() {
			t0 := time.Now()
			r.notEmpty.Wait()
			waited += time.Since(t0)
		} else {
			r.notEmpty.Wait()
		}
	}
	r.o.consumerStall(id, waited)
	if r.taken[id] < r.head {
		// Cursor lag: chunks published ahead of this cursor before the take.
		lag := r.head - r.taken[id]
		ch := r.slots[r.taken[id]%uint64(len(r.slots))]
		r.taken[id]++
		r.o.consumerChunk(id, ch.n, lag)
		return ch, nil, true
	}
	return nil, r.terminal, false
}

// ringSource adapts one consumer's ring cursor to the stream.Source its
// evaluation loop pulls. Terminal conditions are strictly in band: every
// event published to the ring is observed before any ending.
type ringSource struct {
	r    *ringState
	id   int
	cur  *bcastChunk
	aos  []trace.Event // cur's AoS view, fetched on first per-event read
	view stream.ChunkSoA
	pos  int
	err  error
	sampleState
}

// refill advances the cursor to the next published chunk, handling the
// sample pump and in-band terminals. It returns the terminal error once the
// stream ends (also recorded in s.err).
func (s *ringSource) refill() error {
	// The previous chunk is fully processed: offer the consumer a sample
	// at its boundary BEFORE take releases the slot (the boundary seq was
	// captured at adoption — the slot region must not be re-read once the
	// producer can recycle it).
	s.pump(false)
	chunk, err, ok := s.r.take(s.id)
	if !ok {
		if err == nil {
			err = io.EOF
		}
		s.err = err
		// Drop the slot reference; the slot itself was released by take.
		s.cur, s.aos, s.pos = nil, nil, 0
		s.pump(true)
		return err
	}
	s.cur, s.aos, s.pos = chunk, nil, 0
	s.adopt(chunk)
	return nil
}

// Next implements stream.Source.
func (s *ringSource) Next() (trace.Event, error) {
	if s.err != nil {
		return trace.Event{}, s.err
	}
	for s.cur == nil || s.pos >= s.cur.n {
		if err := s.refill(); err != nil {
			return trace.Event{}, err
		}
	}
	if s.aos == nil {
		s.aos = s.cur.aos()
	}
	e := s.aos[s.pos]
	s.pos++
	return e, nil
}

// NextChunkSoA implements stream.SoASource: a column view of the remaining
// events of the current chunk, valid until the next call (which releases
// the underlying slot back to the producer).
func (s *ringSource) NextChunkSoA() (*stream.ChunkSoA, error) {
	if s.err != nil {
		return nil, s.err
	}
	for s.cur == nil || s.pos >= s.cur.n {
		if err := s.refill(); err != nil {
			return nil, err
		}
	}
	s.view = s.cur.cols().Slice(s.pos, s.cur.n)
	s.pos = s.cur.n
	return &s.view, nil
}

// runRing is Config.Run's broadcast for two or more consumers.
func (c Config) runRing(src stream.Source, consumers []Consumer, smps []Sampler, o *engineObs) error {
	r := newRingState(c.ChunkBuffer, len(consumers), o)
	var wg sync.WaitGroup

	// Producer: the single decode pass, filling reusable ring slots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var start time.Time
		if o.enabled() {
			start = time.Now()
		}
		var total uint64
		sp := o.beginSpan("decode", "pipeline", 0)
		defer func() {
			o.producerDone(time.Since(start))
			if sp != nil {
				sp.Arg("events", total).End()
			}
		}()
		filler := newChunkFiller(src)
		for {
			chunk, ok := r.buffer(c.ChunkEvents)
			if !ok {
				r.close(ErrCanceled)
				return
			}
			var csp *obs.SpanHandle
			if o.tracing() {
				csp = o.tracer.Begin("chunk", "decode", 0)
			}
			terminal := filler.fill(chunk, c.ChunkEvents)
			if n := chunk.n; n > 0 {
				total += uint64(n)
				o.decoded(n)
				csp.Arg("events", n).End()
				if !r.publish(chunk) {
					r.close(ErrCanceled)
					return
				}
			}
			if terminal == io.EOF {
				r.close(nil) // a clean end: consumers drain, then see io.EOF
				return
			}
			if terminal != nil {
				r.close(terminal)
				return
			}
		}
	}()

	// Consumers: one goroutine each over a private cursor. No draining is
	// needed on early return — finish simply removes the cursor from the
	// backpressure constraint.
	errs := make([]error, len(consumers))
	for i, consumer := range consumers {
		wg.Add(1)
		go func(i int, consumer Consumer) {
			defer wg.Done()
			sp := o.beginSpan(o.label(i), "consumer", i+1)
			err := c.runConsumer(i, consumer, &ringSource{
				r: r, id: i,
				sampleState: sampleState{sampler: samplerAt(smps, i)},
			})
			o.consumerSpanEnd(i, sp)
			errs[i] = err
			if err != nil && !errors.Is(err, ErrCanceled) {
				r.cancel()
			}
			r.finish(i)
		}(i, consumer)
	}

	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			return err
		}
	}
	return nil
}
