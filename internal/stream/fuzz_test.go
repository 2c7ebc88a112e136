package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// encodeEvents renders a valid .tsm byte stream for seeding the fuzzer.
func encodeEvents(tb testing.TB, meta Meta, events []trace.Event, chunkEvents int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		tb.Fatal(err)
	}
	if chunkEvents > 0 {
		w.perCh = chunkEvents
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// refDecode is the test-local reference decoder the fuzzers hold the Reader
// to: a plain walk over the whole byte slice — the header, every chunk in
// order, the end marker, the trailer, every footer entry, the footer suffix
// and then the end of the input — written from the format description in
// codec.go and index.go rather than from the production decoder. It returns
// the metadata and the events, or an error for any input that is not a
// well-formed trace.
func refDecode(data []byte) (Meta, []trace.Event, error) {
	var meta Meta
	p := refCursor{b: data}
	if string(p.bytes(4)) != string(Magic[:]) {
		return meta, nil, errors.New("bad magic")
	}
	if v := p.bytes(1); v == nil || v[0] != Version {
		return meta, nil, errors.New("bad version")
	}
	nameLen := p.uvarint()
	if nameLen > maxMetaName {
		return meta, nil, errors.New("name too long")
	}
	meta.Workload = string(p.bytes(int(nameLen)))
	meta.Nodes = int(min(p.uvarint(), math.MaxInt))
	meta.Scale = math.Float64frombits(binary.LittleEndian.Uint64(p.fixed8()))
	meta.Seed = p.varint()
	meta.Repeat = math.Float64frombits(binary.LittleEndian.Uint64(p.fixed8()))
	if p.err != nil {
		return meta, nil, p.err
	}
	scaleOK := func(v float64) bool { return v >= 0 && v <= maxMetaScale }
	if meta.Nodes > mem.MaxNodes || !scaleOK(meta.Scale) || !scaleOK(meta.Repeat) {
		return meta, nil, errors.New("metadata out of range")
	}
	nodes := uint64(meta.Nodes)
	if nodes == 0 {
		nodes = mem.MaxNodes
	}

	var (
		events []trace.Event
		chunks []ChunkRef
		end    int64
	)
	for {
		at := int64(p.pos)
		n := p.uvarint()
		if p.err != nil {
			return meta, nil, p.err
		}
		if n == 0 {
			end = at // the end marker
			break
		}
		if n > maxChunkEvents {
			return meta, nil, errors.New("chunk too large")
		}
		chunks = append(chunks, ChunkRef{Offset: at, Events: n})
		block := uint64(0)
		for i := uint64(0); i < n; i++ {
			kind := p.bytes(1)
			node := p.uvarint()
			block += uint64(p.varint())
			prod := p.uvarint()
			if p.err != nil {
				return meta, nil, p.err
			}
			if node >= nodes {
				return meta, nil, errors.New("node out of range")
			}
			events = append(events, trace.Event{
				Seq: uint64(len(events)), Kind: trace.EventKind(kind[0]), Node: mem.NodeID(node),
				Block: mem.BlockAddr(block), Producer: mem.NodeID(int64(prod) - 1),
			})
		}
	}
	if p.uvarint() != uint64(len(events)) {
		return meta, nil, errors.New("trailer count mismatch")
	}

	footer := p.pos
	if p.uvarint() != uint64(len(chunks)) {
		return meta, nil, errors.New("footer chunk count mismatch")
	}
	prev := int64(0)
	for _, c := range chunks {
		off := prev + int64(p.uvarint())
		if off != c.Offset || p.uvarint() != c.Events {
			return meta, nil, errors.New("footer entry mismatch")
		}
		prev = off
	}
	if prev+int64(p.uvarint()) != end {
		return meta, nil, errors.New("footer end offset mismatch")
	}
	payload := p.pos - footer
	if binary.LittleEndian.Uint64(p.fixed8()) != uint64(payload) {
		return meta, nil, errors.New("footer length mismatch")
	}
	if string(p.bytes(4)) != string(IndexMagic[:]) {
		return meta, nil, errors.New("bad footer magic")
	}
	if p.err != nil {
		return meta, nil, p.err
	}
	if p.pos != len(data) {
		return meta, nil, errors.New("trailing bytes")
	}
	return meta, events, nil
}

// refCursor reads fields off a byte slice; the first failure sticks in err
// and every later read returns zero values.
type refCursor struct {
	b   []byte
	pos int
	err error
}

func (c *refCursor) bytes(n int) []byte {
	if c.err != nil || n > len(c.b)-c.pos {
		c.err = errors.New("input ends early")
		return nil
	}
	c.pos += n
	return c.b[c.pos-n : c.pos]
}

func (c *refCursor) fixed8() []byte {
	if b := c.bytes(8); b != nil {
		return b
	}
	return make([]byte, 8)
}

func (c *refCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, w := binary.Uvarint(c.b[c.pos:])
	if w <= 0 {
		c.err = errors.New("bad varint")
		return 0
	}
	c.pos += w
	return v
}

func (c *refCursor) varint() int64 {
	u := c.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// checkAgainstReference is the differential both fuzzers run: the Reader,
// inline and with two workers, accepts exactly the inputs refDecode accepts
// and yields the same metadata and events, sequence numbers included, and
// the batch walk collectSoA agrees with both. Every rejection carries one of
// the codec's structured errors, and nothing panics.
func checkAgainstReference(t *testing.T, data []byte) {
	meta, want, refErr := refDecode(data)
	for _, workers := range []int{0, 2} {
		r, err := openBytes(data, Options{Workers: workers})
		var got []trace.Event
		if err == nil {
			if r.Meta() != meta {
				t.Fatalf("workers=%d: meta %+v, reference %+v", workers, r.Meta(), meta)
			}
			// Inline decode is drained event by event, pooled decode chunk
			// by chunk, so both Reader surfaces are covered.
			if workers == 0 {
				got, err = drainNext(r)
			} else {
				got, err = drainSoA(r)
			}
			err = CloseMerge(r, err)
		}
		if err != nil && !structured(err) {
			t.Fatalf("workers=%d: unstructured error: %v", workers, err)
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("workers=%d: Reader err = %v, reference err = %v", workers, err, refErr)
		}
		if err == nil {
			sameEvents(t, fmt.Sprintf("workers=%d", workers), got, want)
		}
	}
	soa, soaErr := collectSoA(data)
	if (soaErr == nil) != (refErr == nil) {
		t.Fatalf("batch SoA walk err = %v, reference err = %v", soaErr, refErr)
	}
	if soaErr == nil {
		sameEvents(t, "batch SoA walk", soa, want)
	}
}

// drainNext reads src to the end through Next, keeping the sequence numbers
// it hands out.
func drainNext(src Source) ([]trace.Event, error) {
	var out []trace.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// structured reports whether err wraps one of the codec's error kinds.
func structured(err error) bool {
	for _, kind := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt} {
		if errors.Is(err, kind) {
			return true
		}
	}
	return false
}

// FuzzDecode feeds arbitrary bytes to the trace decoder, differentially
// against the reference (checkAgainstReference). The corpus is seeded with
// small valid streams (several chunk geometries, empty streams, negative
// block deltas, invalid producers) so the fuzzer starts from the
// interesting part of the input space, plus a few hand-broken variants.
func FuzzDecode(f *testing.F) {
	meta := Meta{Workload: "db2", Nodes: 4, Scale: 0.25, Seed: 7}
	events := []trace.Event{
		{Kind: trace.KindWrite, Node: 0, Block: 0x1000, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 1, Block: 0x1000, Producer: 0},
		{Kind: trace.KindConsumption, Node: 2, Block: 0x0040, Producer: 0}, // negative delta
		{Kind: trace.KindReadMiss, Node: 3, Block: 1 << 40, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 3, Block: 0x2000, Producer: 2},
	}
	f.Add(encodeEvents(f, meta, events, 0))
	f.Add(encodeEvents(f, meta, events, 2))       // multi-chunk
	f.Add(encodeEvents(f, meta, nil, 0))          // empty stream
	f.Add(encodeEvents(f, Meta{}, events[:1], 0)) // anonymous trace
	valid := encodeEvents(f, meta, events, 0)
	f.Add(valid[:len(valid)-3])           // truncated footer
	f.Add(valid[:9])                      // truncated metadata
	f.Add([]byte("TSMS"))                 // magic only
	f.Add([]byte{'T', 'S', 'M', 'S', 99}) // bad version
	f.Add([]byte{})
	// Footer vectors: truncated mid-index, corrupted index magic, and a
	// doubly-concatenated stream (two complete traces back to back).
	f.Add(valid[:len(valid)-indexSuffixLen/2])
	badMagic := append([]byte(nil), valid...)
	copy(badMagic[len(badMagic)-len(IndexMagic):], "XXXX")
	f.Add(badMagic)
	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(checkAgainstReference)
}

// collectSoA decodes data by walking the chunk index directly with the batch
// struct-of-arrays decoder — readHeader, ReadIndex, then readChunkRegion +
// decodeChunkRegion per chunk, no Reader plumbing — returning the
// concatenated events.
func collectSoA(data []byte) ([]trace.Event, error) {
	ra := bytes.NewReader(data)
	size := int64(len(data))
	meta, headerLen, err := readHeader(ra, size)
	if err != nil {
		return nil, err
	}
	ix, err := ReadIndex(ra, size, headerLen)
	if err != nil {
		return nil, err
	}
	var (
		events  []trace.Event
		scratch []byte
		region  []byte
		soa     ChunkSoA
	)
	for _, ref := range ix.Chunks {
		if region, scratch, err = readChunkRegion(ra, ref, scratch); err != nil {
			return events, err
		}
		soa.Reset()
		if err = decodeChunkRegion(region, ref, meta.nodeLimit(), &soa); err != nil {
			return events, err
		}
		events = soa.AppendTo(events)
	}
	return events, nil
}

// FuzzDecodeIndexed runs the same differential (checkAgainstReference) from
// seeds aimed at the chunk index and the batch decoder's varint arithmetic:
// clipped and missing footers, a corrupted index varint, concatenated
// traces, and chunk-body mutations. An input one decoder accepts that
// another rejects (or decodes differently) would be a silent-corruption
// hole.
func FuzzDecodeIndexed(f *testing.F) {
	meta := Meta{Workload: "db2", Nodes: 4, Scale: 0.25, Seed: 7}
	events := []trace.Event{
		{Kind: trace.KindWrite, Node: 0, Block: 0x1000, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 1, Block: 0x1000, Producer: 0},
		{Kind: trace.KindConsumption, Node: 2, Block: 0x0040, Producer: 0},
		{Kind: trace.KindReadMiss, Node: 3, Block: 1 << 40, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 3, Block: 0x2000, Producer: 2},
	}
	valid := encodeEvents(f, meta, events, 2)
	f.Add(valid)
	f.Add(encodeEvents(f, meta, events, 1))
	f.Add(encodeEvents(f, meta, nil, 0))
	f.Add(valid[:len(valid)-1])                            // clipped footer suffix
	f.Add(valid[:len(valid)-indexSuffixLen])               // suffix gone entirely
	f.Add(append(append([]byte(nil), valid...), valid...)) // concatenated traces
	mutOff := append([]byte(nil), valid...)
	mutOff[len(mutOff)-indexSuffixLen-1] ^= 0x40 // corrupt an index varint
	f.Add(mutOff)
	// Chunk-body mutations aimed at the batch decoder's varint arithmetic:
	// a flipped continuation bit mid-body (an overlong or truncated varint)
	// and a zeroed count byte (count/index disagreement).
	mutBody := append([]byte(nil), valid...)
	mutBody[len(mutBody)/2] ^= 0x80
	f.Add(mutBody)
	mutCount := append([]byte(nil), valid...)
	mutCount[len(mutCount)/3] = 0
	f.Add(mutCount)
	// An end marker of 1 instead of 0: the index still tiles the file, so
	// only a decoder that checks the marker itself rejects it.
	_, headerLen, err := readHeader(bytes.NewReader(valid), int64(len(valid)))
	if err != nil {
		f.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(valid), int64(len(valid)), headerLen)
	if err != nil {
		f.Fatal(err)
	}
	mutMarker := append([]byte(nil), valid...)
	mutMarker[ix.End] = 1
	f.Add(mutMarker)

	f.Fuzz(checkAgainstReference)
}

// TestFuzzSeedsRoundTrip locks the seed corpus itself: every valid seed must
// decode back to exactly the events it encodes.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 4, Scale: 0.25, Seed: 7}
	events := []trace.Event{
		{Kind: trace.KindWrite, Node: 0, Block: 0x1000, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 1, Block: 0x1000, Producer: 0},
		{Kind: trace.KindConsumption, Node: 2, Block: 0x0040, Producer: 0},
		{Kind: trace.KindReadMiss, Node: 3, Block: 1 << 40, Producer: mem.InvalidNode},
		{Kind: trace.KindConsumption, Node: 3, Block: 0x2000, Producer: 2},
	}
	for _, chunk := range []int{0, 1, 2, 3} {
		tr, err := collectOpen(encodeEvents(t, meta, events, chunk), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(events) {
			t.Fatalf("chunk=%d: decoded %d events, want %d", chunk, tr.Len(), len(events))
		}
		for i, e := range tr.Events {
			want := events[i]
			want.Seq = uint64(i)
			if e != want {
				t.Fatalf("chunk=%d event %d = %+v, want %+v", chunk, i, e, want)
			}
		}
	}
}
