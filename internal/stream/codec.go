// The binary trace codec. Format (all integers varint-encoded unless noted):
//
//	magic   "TSMS" (4 bytes)
//	version 1 byte (currently Version)
//	meta    workload name (uvarint length + bytes), nodes (uvarint),
//	        scale (8 bytes, IEEE 754 little endian), seed (zigzag varint),
//	        repeat (8 bytes, IEEE 754 little endian)
//	chunks  repeated: event count n (uvarint, n > 0), then n events:
//	          kind (1 byte)
//	          node (uvarint; below the header's node count, or below
//	            mem.MaxNodes when that is 0 — else ErrCorrupt)
//	          block delta (zigzag varint, relative to the previous event's
//	            block within the chunk; the first event of a chunk is
//	            relative to zero, so chunks decode independently)
//	          producer+1 (uvarint; mem.InvalidNode encodes as 0)
//	end     a zero chunk count, then the total event count (uvarint)
//	footer  the chunk index (see index.go) — a payload of
//	          chunk count (uvarint), then per chunk the file offset
//	          (uvarint, delta from the previous chunk's offset; the first
//	          is absolute) and event count (uvarint), then the end-marker
//	          offset (uvarint, delta from the last chunk's offset) —
//	          followed by the payload length (8 bytes little endian) and
//	          the footer magic "TSMI", so a seeking reader locates the
//	          index from the end of the file without decoding the stream
//
// A stream ends immediately after its footer. Readers locate the footer from
// the end of the file and check that the chunks, the end marker, the trailer
// and the footer tile the file exactly (ReadIndex), so a truncated,
// concatenated or padded file cannot silently decode as a shorter trace.
//
// Sequence numbers are not stored: they are implicit in stream order. Delta
// encoding matters because consecutive consumptions in a stream are near one
// another in the address space, so most block deltas fit in one or two
// bytes instead of eight. Block deltas reset at chunk boundaries, so each
// chunk decodes independently — which is what the chunk index exploits for
// seeking (partial replay) and parallel-by-chunk decode (reader.go).
package stream

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Magic identifies the trace format: the first four bytes of every .tsm
// file.
var Magic = [4]byte{'T', 'S', 'M', 'S'}

// Version is the codec version, the only one writers emit and readers
// accept. Earlier versions (1 and 2, which had no chunk-index footer) fail
// to open with a wrapped ErrVersion.
const Version = 3

// DefaultChunkEvents is the number of events buffered per chunk.
const DefaultChunkEvents = 4096

// maxChunkEvents bounds the per-chunk allocation a reader will make, so a
// corrupt count cannot trigger a huge allocation.
const maxChunkEvents = 1 << 20

// maxMetaName and maxMetaScale bound the metadata (with mem.MaxNodes for
// the node count): a corrupt header must fail with ErrCorrupt, not propagate
// absurd parameters into generator reconstruction or evaluation.
const (
	maxMetaName  = 1024
	maxMetaScale = 1e6
)

// maxHeaderLen bounds the header a reader accepts: magic, version, the
// name-length uvarint, the longest name, the nodes uvarint, scale, the seed
// varint and repeat.
const maxHeaderLen = 4 + 1 + binary.MaxVarintLen64 + maxMetaName + binary.MaxVarintLen64 + 8 + binary.MaxVarintLen64 + 8

// ErrBadMagic is returned when a stream does not start with Magic.
var ErrBadMagic = errors.New("stream: bad magic (not a TSMS trace)")

// ErrVersion is returned (wrapped, with the found version) when the codec
// version is unsupported.
var ErrVersion = errors.New("stream: unsupported trace version")

// ErrTruncated is returned (wrapped) when a stream ends before its header or
// its footer is complete, or a chunk lies past the end of the file.
var ErrTruncated = errors.New("stream: truncated trace")

// ErrCorrupt is returned (wrapped) when a structurally invalid value is
// decoded.
var ErrCorrupt = errors.New("stream: corrupt trace")

// Meta describes how a trace was generated, so a separate process can
// reconstruct the matching generator (for timing profiles) and evaluation
// options without re-running generation.
type Meta struct {
	// Workload is the canonical lower-case workload name ("db2", "em3d"...).
	// Empty for traces that did not come from the workload suite.
	Workload string
	// Nodes is the number of DSM nodes the trace was generated with.
	Nodes int
	// Scale is the workload scale factor.
	Scale float64
	// Seed is the generation seed.
	Seed int64
	// Repeat is the run-length multiplier the trace was generated with
	// (workload.Config.Repeat). Zero means the default of 1.
	Repeat float64
}

// nodeLimit is one past the largest node id an event may carry: the header's
// node count, or mem.MaxNodes when the trace records none.
func (m Meta) nodeLimit() uint64 {
	if m.Nodes == 0 {
		return mem.MaxNodes
	}
	return uint64(m.Nodes)
}

// check reports the first field a header parser rejects. It is the one rule
// for both ends of the format: NewWriter refuses such metadata and
// parseHeader reports it as ErrCorrupt. Nodes may be 0 (a trace that did
// not come from the workload suite).
func (m Meta) check() error {
	switch {
	case len(m.Workload) > maxMetaName:
		return fmt.Errorf("workload name length %d", len(m.Workload))
	case m.Nodes < 0 || m.Nodes > mem.MaxNodes:
		return fmt.Errorf("node count %d", m.Nodes)
	case !metaScaleOK(m.Scale):
		return fmt.Errorf("scale %v", m.Scale)
	case !metaScaleOK(m.Repeat):
		return fmt.Errorf("repeat %v", m.Repeat)
	}
	return nil
}

// metaScaleOK reports whether a scale or repeat factor is finite and in
// [0, maxMetaScale].
func metaScaleOK(v float64) bool {
	return !math.IsNaN(v) && v >= 0 && v <= maxMetaScale
}

// String summarises the metadata in one line.
func (m Meta) String() string {
	name := m.Workload
	if name == "" {
		name = "(custom)"
	}
	s := fmt.Sprintf("%s nodes=%d scale=%g seed=%d", name, m.Nodes, m.Scale, m.Seed)
	if m.Repeat > 0 && m.Repeat != 1 {
		s += fmt.Sprintf(" repeat=%g", m.Repeat)
	}
	return s
}

// Writer encodes events into the chunked binary format. It implements Sink;
// Close emits the end-of-stream marker, trailer and chunk-index footer, so a
// Writer that is not closed produces a stream Readers reject as truncated.
type Writer struct {
	w       *bufio.Writer
	chunk   []trace.Event
	scratch []byte
	count   uint64
	perCh   int
	nodes   uint64     // Meta.nodeLimit: events must come from a node below it
	off     int64      // bytes emitted so far (header + flushed chunks)
	index   []ChunkRef // offset/count per flushed chunk
	closed  bool
	err     error
}

// NewWriter writes the header and metadata and returns a Writer.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if err := meta.check(); err != nil {
		return nil, fmt.Errorf("stream: metadata a reader would reject: %v", err)
	}
	bw := bufio.NewWriter(w)
	hdr := appendHeader(make([]byte, 0, 64), meta)
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("stream: writing header: %w", err)
	}
	return &Writer{w: bw, perCh: DefaultChunkEvents, nodes: meta.nodeLimit(), off: int64(len(hdr))}, nil
}

// appendHeader appends the magic, version byte and metadata block.
func appendHeader(hdr []byte, meta Meta) []byte {
	hdr = append(hdr, Magic[:]...)
	hdr = append(hdr, Version)
	name := strings.ToLower(meta.Workload)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(meta.Nodes))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(meta.Scale))
	hdr = binary.AppendVarint(hdr, meta.Seed)
	return binary.LittleEndian.AppendUint64(hdr, math.Float64bits(meta.Repeat))
}

// readHeader reads the header at the start of ra (size bytes long) with one
// ReadAt and parses it, returning the metadata and the header length.
func readHeader(ra io.ReaderAt, size int64) (Meta, int64, error) {
	buf := make([]byte, min(size, maxHeaderLen))
	if err := readAt(ra, buf, 0); err != nil {
		return Meta{}, 0, fmt.Errorf("stream: reading header: %w", err)
	}
	meta, n, err := parseHeader(buf)
	return meta, int64(n), err
}

// readAt fills p from ra at offset off. A full read succeeds even when ra
// also reports io.EOF, as io.ReaderAt allows at the end of the input; a
// short one fails with ErrTruncated or ra's own error.
func readAt(ra io.ReaderAt, p []byte, off int64) error {
	n, err := ra.ReadAt(p, off)
	switch {
	case n == len(p):
		return nil
	case err == nil || err == io.EOF || err == io.ErrUnexpectedEOF:
		return ErrTruncated
	}
	return err
}

// parseHeader decodes the magic, version byte and metadata block at the
// start of b, returning the metadata and the header length. Running off the
// end of b is ErrTruncated, so b must hold the whole file when it is shorter
// than maxHeaderLen.
func parseHeader(b []byte) (Meta, int, error) {
	var meta Meta
	if len(b) < len(Magic)+1 {
		return meta, 0, fmt.Errorf("stream: reading header: %w", ErrTruncated)
	}
	if *(*[4]byte)(b) != Magic {
		return meta, 0, ErrBadMagic
	}
	if v := b[4]; v != Version {
		return meta, 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, Version)
	}
	pos := len(Magic) + 1
	var err error
	uvarint := func() uint64 {
		if err != nil {
			return 0
		}
		v, w := binary.Uvarint(b[pos:])
		if w <= 0 {
			err = varintErr(w, "metadata")
			return 0
		}
		pos += w
		return v
	}
	fixed := func(n uint64) []byte {
		if err != nil {
			return nil
		}
		if uint64(len(b)-pos) < n {
			err = fmt.Errorf("stream: reading metadata: %w", ErrTruncated)
			return nil
		}
		pos += int(n)
		return b[pos-int(n) : pos]
	}
	n := uvarint()
	if n > maxMetaName {
		return meta, 0, fmt.Errorf("%w: workload name length %d", ErrCorrupt, n)
	}
	meta.Workload = string(fixed(n))
	meta.Nodes = int(min(uvarint(), math.MaxInt))
	if f := fixed(8); f != nil {
		meta.Scale = math.Float64frombits(binary.LittleEndian.Uint64(f))
	}
	zz := uvarint()
	meta.Seed = int64(zz>>1) ^ -int64(zz&1)
	if f := fixed(8); f != nil {
		meta.Repeat = math.Float64frombits(binary.LittleEndian.Uint64(f))
	}
	if err != nil {
		return meta, 0, err
	}
	if err := meta.check(); err != nil {
		return meta, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return meta, pos, nil
}

// Write implements Sink. The event's Seq field is not stored. The count is
// only advanced once the event is safely buffered AND any chunk flush it
// triggered succeeded, so after a write error Count() agrees with what
// actually hit the wire instead of drifting ahead of it.
func (w *Writer) Write(e trace.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errors.New("stream: write after Close")
		return w.err
	}
	if uint64(e.Node) >= w.nodes {
		return fmt.Errorf("stream: event %d from node %d outside [0,%d)", w.count, e.Node, w.nodes)
	}
	w.chunk = append(w.chunk, e)
	if len(w.chunk) >= w.perCh {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// flushChunk encodes and emits the buffered events as one chunk, recording
// its file offset in the index.
func (w *Writer) flushChunk() error {
	if len(w.chunk) == 0 {
		return nil
	}
	buf := w.scratch[:0]
	buf = binary.AppendUvarint(buf, uint64(len(w.chunk)))
	prev := uint64(0)
	for _, e := range w.chunk {
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendUvarint(buf, uint64(e.Node))
		buf = binary.AppendVarint(buf, int64(uint64(e.Block)-prev))
		prev = uint64(e.Block)
		buf = binary.AppendUvarint(buf, uint64(int64(e.Producer)+1))
	}
	w.index = append(w.index, ChunkRef{Offset: w.off, Events: uint64(len(w.chunk))})
	w.scratch = buf[:0]
	w.chunk = w.chunk[:0]
	if _, err := w.w.Write(buf); err != nil {
		w.err = fmt.Errorf("stream: writing chunk: %w", err)
		return w.err
	}
	w.off += int64(len(buf))
	return nil
}

// Count returns the number of events durably accepted so far: events whose
// chunk flush failed are not counted, so the figure never runs ahead of the
// stream's actual contents.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the final chunk, writes the end-of-stream marker, the
// event-count trailer and the chunk-index footer, then flushes the
// underlying buffer. It implements Sink and is idempotent.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		return err
	}
	end := w.off
	tail := binary.AppendUvarint(nil, 0)
	tail = binary.AppendUvarint(tail, w.count)
	tail = appendFooter(tail, w.index, end)
	if _, err := w.w.Write(tail); err != nil {
		w.err = fmt.Errorf("stream: writing trailer: %w", err)
		return w.err
	}
	w.off += int64(len(tail))
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("stream: flushing: %w", err)
		return w.err
	}
	return nil
}

// nodeErr reports an event from a node the header does not have.
func nodeErr(seq, node, nodes uint64) error {
	return fmt.Errorf("%w: event %d from node %d outside [0,%d)", ErrCorrupt, seq, node, nodes)
}

// WriteFile streams src into a new trace file at path, fsync-free but fully
// flushed and closed.
func WriteFile(path string, meta Meta, src Source) (n uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() { err = CloseMerge(f, err) }()
	w, err := NewWriter(f, meta)
	if err != nil {
		return 0, err
	}
	if n, err = Copy(w, src); err != nil {
		return n, err
	}
	return n, w.Close()
}

// LoadFile reads a whole trace file into memory.
func LoadFile(path string) (*trace.Trace, Meta, error) {
	r, err := OpenFile(path, Options{})
	if err != nil {
		return nil, Meta{}, err
	}
	tr, err := Collect(r)
	if err = CloseMerge(r, err); err != nil {
		return nil, r.Meta(), err
	}
	return tr, r.Meta(), nil
}
