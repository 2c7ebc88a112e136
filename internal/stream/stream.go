// Package stream makes traces first-class streams. It provides
//
//   - Source and Sink, the iterator abstraction that lets producers
//     (workload generation, trace files) and consumers (model evaluation,
//     trace files) compose without holding the whole event stream in memory;
//   - ChunkSoA and SoASource (soa.go), the one bulk form: the decoder
//     hands out whole chunks as struct-of-arrays columns, and Columns
//     batches any other Source into the same form;
//   - a chunked, varint/delta-encoded binary trace codec with a chunk-index
//     footer (Writer in codec.go, Reader in reader.go) so traces generated
//     by cmd/tracegen can be replayed by cmd/tsesim — or any other process —
//     byte-for-byte, inline or by a pool of per-chunk decode workers;
//   - a small generic ordered worker pool (parallel.go) reused by the
//     experiments package.
package stream

import (
	"io"

	"tsm/internal/trace"
)

// Source is a pull-based event iterator. Next returns io.EOF (and a zero
// Event) when the stream is exhausted; any other error is terminal.
type Source interface {
	Next() (trace.Event, error)
}

// Sink consumes events one at a time. Close finalises the sink (for codec
// writers it emits the end-of-stream marker and flushes); a Sink must not be
// written to after Close.
type Sink interface {
	Write(e trace.Event) error
	Close() error
}

// SliceSource iterates over an in-memory event slice.
type SliceSource struct {
	events []trace.Event
	pos    int
}

// NewSliceSource returns a Source over events.
func NewSliceSource(events []trace.Event) *SliceSource {
	return &SliceSource{events: events}
}

// TraceSource returns a Source over an in-memory trace.
func TraceSource(t *trace.Trace) *SliceSource {
	return NewSliceSource(t.Events)
}

// Next implements Source.
func (s *SliceSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// TraceSink collects events into an in-memory trace, reassigning dense
// sequence numbers in arrival order.
type TraceSink struct {
	Trace trace.Trace
}

// Write implements Sink.
func (s *TraceSink) Write(e trace.Event) error {
	s.Trace.Append(e)
	return nil
}

// Close implements Sink.
func (s *TraceSink) Close() error { return nil }

// Collect drains a source into an in-memory trace.
func Collect(src Source) (*trace.Trace, error) {
	var sink TraceSink
	if _, err := Copy(&sink, src); err != nil {
		return nil, err
	}
	return &sink.Trace, nil
}

// Copy drains src into sink (without closing the sink) and returns the
// number of events copied.
func Copy(sink Sink, src Source) (uint64, error) {
	var n uint64
	for {
		e, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := sink.Write(e); err != nil {
			return n, err
		}
		n++
	}
}

// CloseMerge closes c and merges the close error into err: err wins if
// already set, otherwise the close error is adopted. It is the one-line form
// of the "close on every path, but never mask the first failure" pattern
// every OpenFile/WriteFile consumer needs:
//
//	res, err := consume(f)
//	return res, stream.CloseMerge(f, err)
func CloseMerge(c io.Closer, err error) error {
	if cerr := c.Close(); err == nil {
		err = cerr
	}
	return err
}
