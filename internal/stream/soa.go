// Struct-of-arrays chunk regions: the one bulk form events travel in from
// the decoder through the pipeline ring to every consumer. ChunkSoA holds
// one chunk as five parallel, same-typed columns (seq/kind/node/block/
// producer). The decoder fills the columns directly from a fully buffered
// []byte region with index-based varint arithmetic, the pipeline broadcasts
// a chunk by bulk column copy, and consumers sweep the dense kind column,
// reading only the columns an event's kind needs. The columns carry
// explicit sequence numbers, so Event(i) reassembles exactly the event the
// Reader's Next returns.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// ChunkSoA holds one chunk of events as parallel columns. All five slices
// always have equal length. A ChunkSoA is reusable as an arena: Reset keeps
// the column capacity, so a decoder that recycles regions allocates O(1)
// per chunk after warm-up.
type ChunkSoA struct {
	Seq      []uint64
	Kind     []trace.EventKind
	Node     []mem.NodeID
	Block    []mem.BlockAddr
	Producer []mem.NodeID
}

// Len returns the number of events in the region.
func (c *ChunkSoA) Len() int { return len(c.Kind) }

// Reset empties the region, keeping column capacity.
func (c *ChunkSoA) Reset() {
	c.Seq = c.Seq[:0]
	c.Kind = c.Kind[:0]
	c.Node = c.Node[:0]
	c.Block = c.Block[:0]
	c.Producer = c.Producer[:0]
}

// Grow ensures capacity for n more events without further allocation.
func (c *ChunkSoA) Grow(n int) {
	if need := len(c.Kind) + n; cap(c.Kind) < need {
		c.Seq = append(make([]uint64, 0, need), c.Seq...)
		c.Kind = append(make([]trace.EventKind, 0, need), c.Kind...)
		c.Node = append(make([]mem.NodeID, 0, need), c.Node...)
		c.Block = append(make([]mem.BlockAddr, 0, need), c.Block...)
		c.Producer = append(make([]mem.NodeID, 0, need), c.Producer...)
	}
}

// AppendEvent appends one event, transposing it into the columns.
func (c *ChunkSoA) AppendEvent(e trace.Event) {
	c.Seq = append(c.Seq, e.Seq)
	c.Kind = append(c.Kind, e.Kind)
	c.Node = append(c.Node, e.Node)
	c.Block = append(c.Block, e.Block)
	c.Producer = append(c.Producer, e.Producer)
}

// AppendEvents transposes a whole event slice into the columns.
func (c *ChunkSoA) AppendEvents(events []trace.Event) {
	c.Grow(len(events))
	for i := range events {
		e := &events[i]
		c.Seq = append(c.Seq, e.Seq)
		c.Kind = append(c.Kind, e.Kind)
		c.Node = append(c.Node, e.Node)
		c.Block = append(c.Block, e.Block)
		c.Producer = append(c.Producer, e.Producer)
	}
}

// AppendSoA bulk-copies another region's columns onto c — five memmoves, no
// per-event work. This is how the pipeline fills a ring slot.
func (c *ChunkSoA) AppendSoA(o *ChunkSoA) {
	c.Seq = append(c.Seq, o.Seq...)
	c.Kind = append(c.Kind, o.Kind...)
	c.Node = append(c.Node, o.Node...)
	c.Block = append(c.Block, o.Block...)
	c.Producer = append(c.Producer, o.Producer...)
}

// Slice returns a view of rows [lo, hi): the columns share c's backing
// arrays, so the view is only valid while c's contents are.
func (c *ChunkSoA) Slice(lo, hi int) ChunkSoA {
	return ChunkSoA{
		Seq:      c.Seq[lo:hi],
		Kind:     c.Kind[lo:hi],
		Node:     c.Node[lo:hi],
		Block:    c.Block[lo:hi],
		Producer: c.Producer[lo:hi],
	}
}

// Event reassembles row i as a trace.Event: what Next hands out, and what a
// column consumer builds for the rows whose model takes a whole event.
func (c *ChunkSoA) Event(i int) trace.Event {
	return trace.Event{
		Seq:      c.Seq[i],
		Kind:     c.Kind[i],
		Node:     c.Node[i],
		Block:    c.Block[i],
		Producer: c.Producer[i],
	}
}

// SoASource is the bulk form of Source, implemented by the decoders and the
// pipeline's broadcast sources: NextChunkSoA returns the remaining events of
// the current chunk as a column view (never an empty region with a nil
// error) and io.EOF at end of stream. The view is only valid until the next
// NextChunkSoA/Next call — consumers that keep events must copy them.
// Consumers sweep dense same-typed arrays instead of paying an interface
// call and a 40-byte struct copy per event.
type SoASource interface {
	Source
	NextChunkSoA() (*ChunkSoA, error)
}

// Columns returns src as a SoASource: src itself when it already is one,
// otherwise an adapter that batches Next into chunks of up to n rows
// (DefaultChunkEvents when n <= 0). The adapter reuses one region, calls
// Next no more after the source's terminal error, and hands that error out
// once the rows read before it are consumed.
func Columns(src Source, n int) SoASource {
	if ss, ok := src.(SoASource); ok {
		return ss
	}
	if n <= 0 {
		n = DefaultChunkEvents
	}
	return &batchSource{src: src, n: n}
}

// batchSource is Columns' adapter over a per-event Source.
type batchSource struct {
	src Source
	n   int
	buf ChunkSoA
	err error // the source's terminal error, once seen
}

// NextChunkSoA implements SoASource.
func (b *batchSource) NextChunkSoA() (*ChunkSoA, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.buf.Reset()
	b.buf.Grow(b.n)
	for b.buf.Len() < b.n {
		e, err := b.src.Next()
		if err != nil {
			b.err = err
			break
		}
		b.buf.AppendEvent(e)
	}
	if b.buf.Len() == 0 {
		return nil, b.err
	}
	return &b.buf, nil
}

// Next implements Source.
func (b *batchSource) Next() (trace.Event, error) {
	if b.err != nil {
		return trace.Event{}, b.err
	}
	return b.src.Next()
}

// appendChunkSoA batch-decodes n delta-reset events from the fully buffered
// region, starting at byte offset pos, appending them to dst with sequence
// numbers startSeq, startSeq+1, ... It returns the byte offset after the
// last event. The decode is index-based, with single-byte fast paths for the varint fields (the common case: node and
// producer IDs are small, and delta encoding keeps most block deltas short).
// Running off the region is a wrapped ErrTruncated; a varint overflowing 64
// bits or a node id at or above nodes is a wrapped ErrCorrupt.
func appendChunkSoA(region []byte, pos int, n, startSeq, nodes uint64, dst *ChunkSoA) (int, error) {
	dst.Grow(int(n))
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		if pos >= len(region) {
			return pos, fmt.Errorf("stream: reading event kind: %w", ErrTruncated)
		}
		kind := region[pos]
		pos++

		var node uint64
		if pos < len(region) && region[pos] < 0x80 {
			node = uint64(region[pos])
			pos++
		} else {
			v, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "event node")
			}
			node, pos = v, pos+w
		}
		if node >= nodes {
			return pos, nodeErr(startSeq+i, node, nodes)
		}

		var delta int64
		if pos < len(region) && region[pos] < 0x80 {
			ux := uint64(region[pos])
			delta = int64(ux>>1) ^ -int64(ux&1)
			pos++
		} else {
			v, w := binary.Varint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "event block")
			}
			delta, pos = v, pos+w
		}
		prev += uint64(delta)

		var prod uint64
		if pos < len(region) && region[pos] < 0x80 {
			prod = uint64(region[pos])
			pos++
		} else {
			v, w := binary.Uvarint(region[pos:])
			if w <= 0 {
				return pos, varintErr(w, "event producer")
			}
			prod, pos = v, pos+w
		}

		dst.Seq = append(dst.Seq, startSeq+i)
		dst.Kind = append(dst.Kind, trace.EventKind(kind))
		dst.Node = append(dst.Node, mem.NodeID(node))
		dst.Block = append(dst.Block, mem.BlockAddr(prev))
		dst.Producer = append(dst.Producer, mem.NodeID(int64(prod)-1))
	}
	return pos, nil
}

// varintErr maps binary.Uvarint/Varint's sentinel returns onto the codec's
// error taxonomy: w == 0 means the bytes ended mid-varint (ErrTruncated),
// w < 0 means the varint overflows 64 bits (ErrCorrupt). what names the
// field being read.
func varintErr(w int, what string) error {
	if w == 0 {
		return fmt.Errorf("stream: reading %s: %w", what, ErrTruncated)
	}
	return fmt.Errorf("stream: reading %s: %w: varint overflows a 64-bit integer", what, ErrCorrupt)
}

// decodeChunkRegion decodes the single chunk whose encoded bytes fill
// region (count prefix included) into dst, stamping sequence numbers from
// the chunk's index position. The decoded count must match the index and
// the events must consume the region exactly, so an index entry seeded
// mid-chunk or into arbitrary bytes fails with ErrCorrupt/ErrTruncated
// instead of yielding a silently different stream.
func decodeChunkRegion(region []byte, ref ChunkRef, nodes uint64, dst *ChunkSoA) error {
	n, w := binary.Uvarint(region)
	if w <= 0 {
		return varintErr(w, "chunk count")
	}
	if n != ref.Events {
		return fmt.Errorf("%w: chunk at offset %d holds %d events, index says %d", ErrCorrupt, ref.Offset, n, ref.Events)
	}
	pos, err := appendChunkSoA(region, w, n, ref.Start, nodes, dst)
	if err != nil {
		return err
	}
	if pos != len(region) {
		return fmt.Errorf("%w: chunk at offset %d longer than its index extent", ErrCorrupt, ref.Offset)
	}
	return nil
}

// regionReaderAt is the optional io.ReaderAt refinement mmap-backed readers
// implement: Region returns a zero-copy view of [off, off+n), letting the
// chunk decoder parse straight out of the mapped pages instead of copying
// each chunk into a scratch buffer first.
type regionReaderAt interface {
	Region(off, n int64) ([]byte, bool)
}

// readChunkRegion returns the encoded bytes of the chunk at ref — a
// zero-copy view when ra supports it (mmap), otherwise read into scratch
// (grown as needed). It returns the possibly-grown scratch for reuse.
func readChunkRegion(ra io.ReaderAt, ref ChunkRef, scratch []byte) (region, newScratch []byte, err error) {
	if rr, ok := ra.(regionReaderAt); ok {
		if b, ok := rr.Region(ref.Offset, ref.Length); ok {
			return b, scratch, nil
		}
	}
	if int64(cap(scratch)) < ref.Length {
		scratch = make([]byte, ref.Length)
	}
	scratch = scratch[:ref.Length]
	if err := readAt(ra, scratch, ref.Offset); err != nil {
		return nil, scratch, fmt.Errorf("stream: reading chunk at offset %d: %w", ref.Offset, err)
	}
	return scratch, scratch, nil
}
