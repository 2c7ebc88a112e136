package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// randomTrace builds a deterministic pseudo-random trace exercising every
// kind, the full node range, InvalidNode producers and large block deltas.
func randomTrace(n int, seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for i := 0; i < n; i++ {
		kind := trace.EventKind(rng.Intn(3))
		prod := mem.InvalidNode
		if kind == trace.KindConsumption && rng.Intn(4) != 0 {
			prod = mem.NodeID(rng.Intn(16))
		}
		var block mem.BlockAddr
		if rng.Intn(8) == 0 {
			// Occasional far jump (new region): a large delta.
			block = mem.BlockAddr(rng.Uint64() &^ 63)
		} else {
			block = mem.BlockAddr(uint64(rng.Intn(1<<20)) * 64)
		}
		// Nodes stay below every header node count the tests write.
		tr.Append(trace.Event{
			Kind:     kind,
			Node:     mem.NodeID(rng.Intn(4)),
			Block:    block,
			Producer: prod,
		})
	}
	return tr
}

func encode(t *testing.T, tr *trace.Trace, meta Meta) []byte {
	t.Helper()
	return encodeV(t, tr, meta, Version)
}

// encodeV encodes at an explicit codec version — the legacy-layout tests
// (trailer surgery, v1 header patching) need a version 2 stream, whose last
// bytes are the trailer rather than the chunk-index footer.
func encodeV(t *testing.T, tr *trace.Trace, meta Meta, version byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterVersion(&buf, meta, version)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecRoundTrip is the round-trip property test: for a range of trace
// sizes straddling chunk boundaries, encode→decode yields identical events
// and metadata.
func TestCodecRoundTrip(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	for _, n := range []int{0, 1, 7, DefaultChunkEvents - 1, DefaultChunkEvents, DefaultChunkEvents + 1, 3*DefaultChunkEvents + 17} {
		tr := randomTrace(n, int64(n)+1)
		data := encode(t, tr, meta)

		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r.Meta() != meta {
			t.Fatalf("n=%d: meta = %+v, want %+v", n, r.Meta(), meta)
		}
		got, err := Collect(r)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if got.Len() != tr.Len() {
			t.Fatalf("n=%d: decoded %d events, want %d", n, got.Len(), tr.Len())
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got.Events[i], tr.Events[i])
			}
		}
		// The stream must then be cleanly exhausted.
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("n=%d: after end: %v, want io.EOF", n, err)
		}
	}
}

// TestCodecCompact checks that delta encoding actually compresses: the
// streamed format must be well under the legacy 13-byte fixed event size.
func TestCodecCompact(t *testing.T) {
	tr := randomTrace(10000, 3)
	data := encode(t, tr, Meta{Workload: "em3d", Nodes: 16, Scale: 1, Seed: 1})
	if max := 10 * tr.Len(); len(data) > max {
		t.Fatalf("encoded %d events in %d bytes, want <= %d", tr.Len(), len(data), max)
	}
}

func TestCodecBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE!xxxxxxx"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// The legacy fixed-width format must be rejected too.
	if _, err := NewReader(bytes.NewReader([]byte{'T', 'S', 'M', '1', 0, 0, 0})); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("legacy header: err = %v, want ErrBadMagic", err)
	}
}

func TestCodecVersionMismatch(t *testing.T) {
	data := encode(t, randomTrace(10, 1), Meta{Nodes: 4, Scale: 1, Seed: 1})
	data[4] = Version + 8
	_, err := NewReader(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestCodecTruncated cuts a valid stream at every interesting boundary and
// expects a wrapped ErrTruncated (never a clean EOF, never a panic).
func TestCodecTruncated(t *testing.T) {
	tr := randomTrace(2*DefaultChunkEvents+5, 7)
	data := encode(t, tr, Meta{Workload: "ocean", Nodes: 16, Scale: 1, Seed: 9})
	cuts := []int{3, 5, 9, 20, len(data) / 2, len(data) - 1}
	for _, cut := range cuts {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut=%d: header err = %v, want ErrTruncated", cut, err)
			}
			continue
		}
		_, err = Collect(r)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: decode err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestCodecMissingTrailer exercises the case a crashed writer produces:
// complete chunks but no end marker. The reader must not report clean EOF.
func TestCodecMissingTrailer(t *testing.T) {
	tr := randomTrace(DefaultChunkEvents, 11) // exactly one full chunk
	// Version 2: the stream ends at the trailer, so stripping the last
	// bytes removes exactly the end marker + count. (A v3 stream ends at
	// the footer instead; truncation inside it is covered elsewhere.)
	data := encodeV(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, VersionNoIndex)
	// Strip the end marker (one zero byte) and trailer varint.
	trunc := data[:len(data)-1-len(appendUvarintLen(uint64(tr.Len())))]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// appendUvarintLen returns the varint encoding of v (helper to compute
// trailer length).
func appendUvarintLen(v uint64) []byte {
	buf := make([]byte, 0, 10)
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// TestCodecCorruptTrailer flips the trailer count and expects ErrCorrupt.
func TestCodecCorruptTrailer(t *testing.T) {
	tr := randomTrace(5, 13)
	// Version 2, where the trailer is the last varint of the stream.
	data := encodeV(t, tr, Meta{Nodes: 4, Scale: 1, Seed: 1}, VersionNoIndex)
	data[len(data)-1]++ // 5 fits in one byte
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// unreadableMetas are header metadata the parser must reject: node counts
// outside [0, mem.MaxNodes], and NaN, infinite, negative or huge scales and
// repeats.
var unreadableMetas = []Meta{
	{Workload: "db2", Nodes: mem.MaxNodes + 1, Scale: 1, Seed: 1},
	{Workload: "db2", Nodes: 100, Scale: 1, Seed: 1},
	{Workload: "db2", Nodes: 1 << 20, Scale: 1, Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: math.NaN(), Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: math.Inf(1), Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: -1, Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: -0.5, Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: maxMetaScale * 2, Seed: 1},
	{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: math.NaN()},
	{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: math.Inf(1)},
	{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: -1},
	{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: -2},
	{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: maxMetaScale * 2},
}

// TestCodecCorruptMeta: absurd header metadata (node counts beyond
// mem.MaxNodes, NaN or negative scales) must fail with ErrCorrupt at open
// rather than flow into generator reconstruction or evaluation, where a
// node count beyond the directory's sharer map would panic. The headers are
// built with appendHeader directly, because NewWriter refuses to write them.
func TestCodecCorruptMeta(t *testing.T) {
	for _, meta := range unreadableMetas {
		data := appendHeader(nil, meta, Version)
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("meta %+v: NewReader err = %v, want ErrCorrupt", meta, err)
		}
		if _, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("meta %+v: OpenIndexed err = %v, want ErrCorrupt", meta, err)
		}
	}
	// The largest supported machine still opens.
	meta := Meta{Workload: "db2", Nodes: mem.MaxNodes, Scale: 1, Seed: 1}
	r, err := NewReader(bytes.NewReader(encode(t, randomTrace(3, 1), meta)))
	if err != nil || r.Meta() != meta {
		t.Fatalf("%d-node header: meta %+v, err %v", mem.MaxNodes, r.Meta(), err)
	}
}

// TestWriterRejectsUnreadableMeta: the writer applies the parser's own rule,
// so it never produces a header its readers reject. Nothing is written.
func TestWriterRejectsUnreadableMeta(t *testing.T) {
	for _, meta := range unreadableMetas {
		var buf bytes.Buffer
		if _, err := NewWriter(&buf, meta); err == nil {
			t.Errorf("meta %+v: NewWriter accepted metadata its reader rejects", meta)
		}
		if buf.Len() != 0 {
			t.Errorf("meta %+v: NewWriter wrote %d bytes before refusing", meta, buf.Len())
		}
	}
	// Version 1 stores no repeat, so a bad repeat cannot make it unreadable.
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1, Repeat: -2}
	if _, err := NewWriterVersion(io.Discard, meta, versionNoRepeat); err != nil {
		t.Errorf("version 1 writer refused a repeat it does not store: %v", err)
	}
}

// TestCodecRepeatMetaRoundTrip: the run-length multiplier a trace was
// generated with must survive the file format, so generator reconstruction
// (tsm.GeneratorFor) rebuilds a generator whose run actually matches the
// file's contents for -repeat/-preset traces.
func TestCodecRepeatMetaRoundTrip(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 4, Seed: 1, Repeat: 4}
	r, err := NewReader(bytes.NewReader(encode(t, randomTrace(10, 1), meta)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v", r.Meta(), meta)
	}
	if s := meta.String(); !strings.Contains(s, "repeat=4") {
		t.Fatalf("meta string %q should name the repeat", s)
	}
	// Repeat 1 and 0 (the default) are not worth a mention.
	if s := (Meta{Workload: "db2", Nodes: 16, Scale: 1, Seed: 1}).String(); strings.Contains(s, "repeat") {
		t.Fatalf("meta string %q should omit the default repeat", s)
	}
}

// TestCodecReadsVersion1: streams written before the repeat field existed
// (version 1, no trailing 8-byte repeat in the header) must still decode,
// with Repeat reported as the zero default.
func TestCodecReadsVersion1(t *testing.T) {
	tr := randomTrace(2*DefaultChunkEvents+5, 3)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encodeV(t, tr, meta, VersionNoIndex)
	// Rewrite the v2 header as v1 by dropping the 8-byte repeat field:
	// magic(4) + version(1) + name len(1) + "db2"(3) + nodes(1) +
	// scale(8) + seed(1) puts it at offset 19 for this metadata.
	const repeatOff = 4 + 1 + 1 + 3 + 1 + 8 + 1
	v1 := append([]byte{}, data[:repeatOff]...)
	v1 = append(v1, data[repeatOff+8:]...)
	v1[4] = versionNoRepeat
	r, err := NewReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v (Repeat must default to 0)", r.Meta(), meta)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

// TestCodecRejectsTrailingGarbage is the regression test for the silent-
// corruption hole: the reader used to stop at the end marker + trailer
// without confirming the stream actually ends, so a doubly-concatenated or
// padded .tsm decoded "cleanly" as just its first stream. Every version
// must now fail with ErrCorrupt.
func TestCodecRejectsTrailingGarbage(t *testing.T) {
	tr := randomTrace(DefaultChunkEvents+17, 21)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	for _, version := range []byte{VersionNoIndex, Version} {
		data := encodeV(t, tr, meta, version)
		for name, corrupt := range map[string][]byte{
			"doubly-concatenated": append(append([]byte{}, data...), data...),
			"one trailing byte":   append(append([]byte{}, data...), 0),
			"trailing zeros":      append(append([]byte{}, data...), make([]byte, 64)...),
		} {
			r, err := NewReader(bytes.NewReader(corrupt))
			if err != nil {
				t.Fatalf("v%d %s: header: %v", version, name, err)
			}
			if _, err := Collect(r); !errors.Is(err, ErrCorrupt) {
				t.Errorf("v%d %s: err = %v, want ErrCorrupt", version, name, err)
			}
		}
		// The pristine stream, for contrast, still decodes cleanly.
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Collect(r); err != nil || got.Len() != tr.Len() {
			t.Fatalf("v%d pristine: %d events, err %v", version, got.Len(), err)
		}
	}
}

// failAfterWriter errors on every write past the first n bytes, simulating
// a full disk partway through a stream.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriterCountStopsOnFlushError pins the Count/flush ordering: once a
// chunk flush fails, Count() must not keep advancing past what actually hit
// the wire, and the error must latch.
func TestWriterCountStopsOnFlushError(t *testing.T) {
	// Room for the header and the first buffered flush, but not much more.
	// The writer buffers through bufio, so enough events are needed to
	// force underlying writes.
	fw := &failAfterWriter{n: 64}
	w, err := NewWriter(fw, Meta{Nodes: 4, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.perCh = 8
	tr := randomTrace(4*DefaultChunkEvents, 29)
	var werr error
	i := 0
	for ; i < len(tr.Events); i++ {
		if werr = w.Write(tr.Events[i]); werr != nil {
			break
		}
	}
	if werr == nil {
		t.Fatal("expected a write to fail against the failing writer")
	}
	// Every successful Write counted, the failed one did not.
	if got := w.Count(); got != uint64(i) {
		t.Fatalf("Count() = %d after %d successful writes", got, i)
	}
	before := w.Count()
	if err := w.Write(tr.Events[0]); err == nil {
		t.Fatal("Write after error must keep failing")
	}
	if w.Count() != before {
		t.Fatalf("Count() advanced to %d after the error latched", w.Count())
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failed flush must report the error")
	}
}

// TestCodecV2RoundTrip: NewWriterVersion(2) still produces the footerless
// layout older readers understand, and the current reader decodes it.
func TestCodecV2RoundTrip(t *testing.T) {
	tr := randomTrace(2*DefaultChunkEvents+5, 31)
	meta := Meta{Workload: "apache", Nodes: 8, Scale: 0.5, Seed: 3, Repeat: 2}
	data := encodeV(t, tr, meta, VersionNoIndex)
	if bytes.Equal(data[len(data)-4:], IndexMagic[:]) {
		t.Fatal("version 2 stream must not carry a chunk-index footer")
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v", r.Meta(), meta)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
	}
	if _, err := NewWriterVersion(io.Discard, meta, Version+1); !errors.Is(err, ErrVersion) {
		t.Fatal("NewWriterVersion must reject unknown versions")
	}
}

func TestWriterRejectsWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Nodes: 4, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close must be idempotent, got %v", err)
	}
	if err := w.Write(trace.Event{}); err == nil {
		t.Fatal("Write after Close must fail")
	}
}

func TestFileRoundTrip(t *testing.T) {
	tr := randomTrace(1234, 17)
	meta := Meta{Workload: "zeus", Nodes: 16, Scale: 0.5, Seed: 4}
	path := t.TempDir() + "/t.tsm"
	n, err := WriteFile(path, meta, TraceSource(tr))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(tr.Len()) {
		t.Fatalf("wrote %d events, want %d", n, tr.Len())
	}
	got, gotMeta, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta = %+v, want %+v", gotMeta, meta)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("loaded %d events, want %d", got.Len(), tr.Len())
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}
