package stream

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
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

// openBytes opens an in-memory trace.
func openBytes(data []byte, opt Options) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)), opt)
}

// collectOpen opens and drains an in-memory trace, reporting the first error
// of either step.
func collectOpen(data []byte, opt Options) (*trace.Trace, error) {
	r, err := openBytes(data, opt)
	if err != nil {
		return nil, err
	}
	tr, err := Collect(r)
	return tr, CloseMerge(r, err)
}

// TestCodecRoundTrip is the round-trip property test: for a range of trace
// sizes straddling chunk boundaries, encode→decode yields identical events
// and metadata.
func TestCodecRoundTrip(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	for _, n := range []int{0, 1, 7, DefaultChunkEvents - 1, DefaultChunkEvents, DefaultChunkEvents + 1, 3*DefaultChunkEvents + 17} {
		tr := randomTrace(n, int64(n)+1)
		data := encode(t, tr, meta)

		r, err := openBytes(data, Options{})
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
	if _, err := openBytes([]byte("NOPE!xxxxxxx"), Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	// The legacy fixed-width format must be rejected too.
	if _, err := openBytes([]byte{'T', 'S', 'M', '1', 0, 0, 0}, Options{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("legacy header: err = %v, want ErrBadMagic", err)
	}
}

func TestCodecVersionMismatch(t *testing.T) {
	data := encode(t, randomTrace(10, 1), Meta{Nodes: 4, Scale: 1, Seed: 1})
	data[4] = Version + 8
	_, err := openBytes(data, Options{})
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// truncationModes are the ways a cut file is opened: in memory with inline
// decode and with two workers, and from disk through a memory mapping.
var truncationModes = []struct {
	name string
	opt  Options
	file bool
}{
	{"inline", Options{}, false},
	{"workers2", Options{Workers: 2}, false},
	{"mmap", Options{Workers: 2, Mmap: true}, true},
}

// collectMode opens data in the given truncation mode and drains it.
func collectMode(t *testing.T, data []byte, opt Options, file bool) error {
	t.Helper()
	if !file {
		_, err := collectOpen(data, opt)
		return err
	}
	path := filepath.Join(t.TempDir(), "cut.tsm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, opt)
	if err != nil {
		return err
	}
	_, err = Collect(r)
	return CloseMerge(r, err)
}

// TestCodecTruncated cuts a valid stream at every interesting boundary and
// expects a wrapped ErrTruncated (never a clean EOF, never a panic), inline,
// with decode workers and under mmap; then cuts a small multi-chunk stream
// at every byte.
func TestCodecTruncated(t *testing.T) {
	tr := randomTrace(2*DefaultChunkEvents+5, 7)
	data := encode(t, tr, Meta{Workload: "ocean", Nodes: 16, Scale: 1, Seed: 9})
	cuts := []int{0, 3, 5, 9, 20, len(data) / 2, len(data) - indexSuffixLen, len(data) - 1}
	for _, mode := range truncationModes {
		for _, cut := range cuts {
			if err := collectMode(t, data[:cut], mode.opt, mode.file); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut=%d: err = %v, want ErrTruncated", mode.name, cut, err)
			}
		}
	}
	small := encodeChunked(t, randomTrace(3*8+5, 7), Meta{Workload: "ocean", Nodes: 16}, 8)
	for _, mode := range truncationModes[:2] {
		for cut := 0; cut < len(small); cut++ {
			if err := collectMode(t, small[:cut], mode.opt, mode.file); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s cut=%d of %d: err = %v, want ErrTruncated", mode.name, cut, len(small), err)
			}
		}
	}
}

// TestCodecMissingTrailer exercises the case a crashed writer produces:
// complete chunks but no end marker, trailer or footer. The reader must not
// report clean EOF.
func TestCodecMissingTrailer(t *testing.T) {
	tr := randomTrace(DefaultChunkEvents, 11) // exactly one full chunk
	data := encode(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1})
	// Everything before the end marker: the header and the chunk.
	trunc := data[:mustIndex(t, data).End]
	for _, mode := range truncationModes {
		if err := collectMode(t, trunc, mode.opt, mode.file); !errors.Is(err, ErrTruncated) {
			t.Fatalf("%s: err = %v, want ErrTruncated", mode.name, err)
		}
	}
}

// TestCodecCorruptTrailer bumps the trailer count and expects ErrCorrupt.
func TestCodecCorruptTrailer(t *testing.T) {
	tr := randomTrace(5, 13)
	data := encode(t, tr, Meta{Nodes: 4, Scale: 1, Seed: 1})
	// The trailer count follows the one-byte end marker; 5 fits in one byte.
	data[mustIndex(t, data).End+1]++
	if _, err := collectOpen(data, Options{}); !errors.Is(err, ErrCorrupt) {
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
		data := appendHeader(nil, meta)
		if _, err := openBytes(data, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("meta %+v: Open err = %v, want ErrCorrupt", meta, err)
		}
	}
	// The largest supported machine still opens.
	meta := Meta{Workload: "db2", Nodes: mem.MaxNodes, Scale: 1, Seed: 1}
	r, err := openBytes(encode(t, randomTrace(3, 1), meta), Options{})
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
}

// TestCodecRepeatMetaRoundTrip: the run-length multiplier a trace was
// generated with must survive the file format, so generator reconstruction
// (tsm.GeneratorFor) rebuilds a generator whose run actually matches the
// file's contents for -repeat/-preset traces.
func TestCodecRepeatMetaRoundTrip(t *testing.T) {
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 4, Seed: 1, Repeat: 4}
	r, err := openBytes(encode(t, randomTrace(10, 1), meta), Options{})
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

// TestCodecReadsVersion1: a stream written before the repeat field existed
// (version 1) is no longer decoded; opening one fails with a wrapped
// ErrVersion, inline and with workers, never with a crash or a misread
// header.
func TestCodecReadsVersion1(t *testing.T) {
	v1 := oldVersionFiles(t)["v1"]
	for _, workers := range []int{0, 2} {
		if _, err := openBytes(v1, Options{Workers: workers}); !errors.Is(err, ErrVersion) {
			t.Errorf("workers=%d: Open err = %v, want ErrVersion", workers, err)
		}
	}
}

// TestCodecV2RoundTrip: the writer emits only the indexed layout, which
// round-trips events and metadata and ends in the footer magic; the
// footerless version 2 layout it replaced fails Open with ErrVersion.
func TestCodecV2RoundTrip(t *testing.T) {
	tr := randomTrace(2*DefaultChunkEvents+5, 31)
	meta := Meta{Workload: "apache", Nodes: 8, Scale: 0.5, Seed: 3, Repeat: 2}
	data := encode(t, tr, meta)
	if data[4] != Version || !bytes.Equal(data[len(data)-4:], IndexMagic[:]) {
		t.Fatalf("writer must emit version %d with a chunk-index footer", Version)
	}
	r, err := openBytes(data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Meta() != meta {
		t.Fatalf("meta = %+v, want %+v", r.Meta(), meta)
	}
	got, err := Collect(r)
	if err := CloseMerge(r, err); err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
	}
	for _, workers := range []int{0, 2} {
		if _, err := openBytes(oldVersionFiles(t)["v2"], Options{Workers: workers}); !errors.Is(err, ErrVersion) {
			t.Errorf("v2 workers=%d: Open err = %v, want ErrVersion", workers, err)
		}
	}
}

// TestCodecRejectsTrailingGarbage is the regression test for the silent-
// corruption hole: a doubly-concatenated or padded .tsm must never decode
// "cleanly" as just its first stream. Two concatenated traces end in a
// valid footer whose trailer is followed by a whole second stream
// (ErrCorrupt); a padded file has no footer at its end at all, which is what
// a cut file looks like too (ErrTruncated).
func TestCodecRejectsTrailingGarbage(t *testing.T) {
	tr := randomTrace(DefaultChunkEvents+17, 21)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encode(t, tr, meta)
	for _, tc := range []struct {
		name    string
		corrupt []byte
		want    error
	}{
		{"doubly-concatenated", append(append([]byte{}, data...), data...), ErrCorrupt},
		{"one trailing byte", append(append([]byte{}, data...), 0), ErrTruncated},
		{"trailing zeros", append(append([]byte{}, data...), make([]byte, 64)...), ErrTruncated},
	} {
		for _, workers := range []int{0, 2} {
			if _, err := collectOpen(tc.corrupt, Options{Workers: workers}); !errors.Is(err, tc.want) {
				t.Errorf("%s workers=%d: err = %v, want %v", tc.name, workers, err, tc.want)
			}
		}
	}
	// The pristine stream, for contrast, still decodes cleanly.
	got, err := collectOpen(data, Options{})
	if err != nil {
		t.Fatalf("pristine: %v", err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("pristine: %d events, want %d", got.Len(), tr.Len())
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
