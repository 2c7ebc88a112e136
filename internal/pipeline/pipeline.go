// Package pipeline is the single-decode fan-out replay engine: it tees ONE
// pass over a stream.Source into N independent consumers, each running on its
// own goroutine behind a shared, bounded broadcast ring.
//
// The paper's evaluation is inherently multi-consumer — one memory-access
// stream feeds the baseline timing model and the TSE timing model (whose TSE
// system also yields the coverage), the Figure 12 prefetchers, or every
// cell of a sensitivity sweep — and every file replay and every sweep is
// evaluated here as N consumers of one walk of the stream:
//
//	source ──decode once──▶ ring of chunk slots ──cursor per consumer──▶ consumer 0..N-1
//
// Chunks travel in one form, stream.ChunkSoA: the producer pulls
// stream.Columns(src) — a decoder's own chunks, or a per-event source
// batched into chunks — and copies each into a ring slot's columns. One
// consumer rides the ring exactly like N.
//
// The engine guarantees:
//
//   - events are batched into chunks, so publishing costs one slot write and
//     one wakeup per chunk however many consumers are attached;
//   - the ring is bounded, so the slowest consumer exerts backpressure on the
//     producer instead of forcing unbounded buffering — replay stays
//     bounded-memory no matter how large the trace file is;
//   - each consumer observes the events in exactly the decode order
//     (deterministic per-consumer ordering), which is what lets the fused
//     replay produce reports bit-identical to evaluating each model serially;
//   - the first consumer failure — an error or a recovered panic — cancels the
//     producer and every other consumer promptly (their sources return
//     ErrCanceled), and a decode error is delivered to every consumer as its
//     terminal source error.
//
// Consumers only need to implement Run(stream.Source) error. The source
// each one receives is also a stream.SoASource: the model consumers
// (analysis.TSEConsumer, analysis.ModelConsumer, timing.Consumer) sweep its
// column chunks, and any other pull loop may call Next per event. See
// ring.go for the broadcast itself.
package pipeline

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"tsm/internal/obs"
	"tsm/internal/stream"
)

// ErrCanceled is the terminal error a consumer's source returns once another
// consumer has failed: the stream ends early through no fault of this
// consumer. Run never returns ErrCanceled itself — it reports the error that
// caused the cancellation.
var ErrCanceled = errors.New("pipeline: canceled by another consumer's error")

// ErrConsumerPanic matches (via errors.Is) the *ConsumerPanicError Run
// returns when a consumer panics.
var ErrConsumerPanic = errors.New("pipeline: consumer panicked")

// ConsumerPanicError reports a consumer panic recovered on the consumer's
// goroutine. The run is canceled exactly as for a consumer error: the other
// consumers see ErrCanceled and no goroutine outlives Run.
type ConsumerPanicError struct {
	// Consumer is the panicking consumer's label (its Config.ConsumerNames
	// entry, or its index).
	Consumer string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace — what the panic would
	// have printed had it crashed the process.
	Stack []byte
}

func (e *ConsumerPanicError) Error() string {
	return fmt.Sprintf("pipeline: consumer %s panicked: %v", e.Consumer, e.Value)
}

// Is makes errors.Is(err, ErrConsumerPanic) hold.
func (e *ConsumerPanicError) Is(target error) bool { return target == ErrConsumerPanic }

// Consumer is one independent destination of the fan-out: Run drains the
// source to io.EOF (or fails) and stores whatever result it computes.
// Implementations receive their own private Source and run on their own
// goroutine. Events from Next arrive by value, so a Consumer may keep them
// freely; a column view from the source's NextChunkSoA is the ring slot
// itself, shared read-only with every other consumer and valid only until
// the next call. A Consumer that returns before io.EOF is fine too — once
// every consumer has returned, the engine stops decoding.
type Consumer interface {
	Run(src stream.Source) error
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(src stream.Source) error

// Run implements Consumer.
func (f ConsumerFunc) Run(src stream.Source) error { return f(src) }

// DefaultChunkEvents is the number of events batched per broadcast chunk.
const DefaultChunkEvents = 1024

// DefaultChunkBuffer is the ring capacity in chunks; together with the chunk
// size it bounds how far the decoder may run ahead of the slowest consumer.
const DefaultChunkBuffer = 4

// Config tunes the engine. The zero value selects the defaults.
type Config struct {
	// ChunkEvents is the number of events batched per chunk (default
	// DefaultChunkEvents).
	ChunkEvents int
	// ChunkBuffer is the ring capacity in chunks (default
	// DefaultChunkBuffer).
	ChunkBuffer int
	// Metrics, when non-nil, receives the engine's counters, gauges and
	// backpressure histograms under the "pipeline." prefix (see obs.go for
	// the full name list). Nil — the default — disables metric collection
	// entirely: the hot paths then perform a pointer check and nothing else.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per stage: the decode pass and
	// each decoded chunk on lane 0, every consumer on its own lane. Nil
	// disables tracing.
	Tracer *obs.Tracer
	// ConsumerNames optionally labels consumers (sweep cells, model names)
	// in metrics and trace lanes; consumers beyond the list — or empty
	// entries — fall back to their index.
	ConsumerNames []string
	// Series, when non-nil, attaches domain time-series sampling: every
	// consumer implementing Sampler receives a per-consumer obs.Series (named
	// by its label) and is pumped at broadcast-chunk boundaries (see
	// sample.go). Nil — the default — disables sampling entirely.
	Series *obs.SeriesSet
}

func (c Config) normalize() Config {
	if c.ChunkEvents <= 0 {
		c.ChunkEvents = DefaultChunkEvents
	}
	if c.ChunkBuffer <= 0 {
		c.ChunkBuffer = DefaultChunkBuffer
	}
	return c
}

// Run tees a single decode pass over src into every consumer with the
// default configuration. See Config.Run.
func Run(src stream.Source, consumers ...Consumer) error {
	return Config{}.Run(src, consumers...)
}

// bcastChunk is one ring slot: a chunk's rows as columns, plus the seq of
// its final row, captured when the producer fills the slot so the sampling
// pump never re-reads a slot it has released.
type bcastChunk struct {
	soa  stream.ChunkSoA
	last uint64 // seq of the final row (valid when soa.Len() > 0)
}

// fill copies the source's next chunk into the emptied slot — one bulk
// column copy. A non-nil terminal leaves the slot empty.
func (b *bcastChunk) fill(src stream.SoASource) (terminal error) {
	c, err := src.NextChunkSoA()
	if err != nil {
		return err
	}
	b.soa.AppendSoA(c)
	if n := b.soa.Len(); n > 0 {
		b.last = b.soa.Seq[n-1]
	}
	return nil
}

// Run decodes src exactly once and broadcasts the events to every consumer
// through the ring, blocking until the producer and all consumers have
// finished (no goroutine outlives the call). With zero consumers it returns
// nil without reading src.
//
// On success every consumer has drained the full stream in decode order. On
// failure Run returns the first error in consumer order — a consumer's own
// failure, a recovered consumer panic (ErrConsumerPanic), or the decode error
// every consumer observed — never ErrCanceled.
func (c Config) Run(src stream.Source, consumers ...Consumer) error {
	if len(consumers) == 0 {
		return nil
	}
	c = c.normalize()
	smps := c.samplers(consumers)
	o := c.newObs(len(consumers))
	if o.enabled() {
		defer o.runDone(time.Now())
	}
	return c.runRing(src, consumers, smps, o)
}

// runConsumer runs consumer i over src, recovering a panic into a
// *ConsumerPanicError so one broken consumer fails the run instead of the
// process.
func (c Config) runConsumer(i int, consumer Consumer, src stream.Source) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &ConsumerPanicError{Consumer: c.consumerLabel(i), Value: v, Stack: debug.Stack()}
		}
	}()
	return consumer.Run(src)
}
