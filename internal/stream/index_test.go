package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"tsm/internal/trace"
)

// encodeChunked encodes tr at the current version with an explicit chunk
// size, so index tests get many chunks without huge traces.
func encodeChunked(t *testing.T, tr *trace.Trace, meta Meta, perCh int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	w.perCh = perCh
	if _, err := Copy(w, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectEvents drains a Reader into a slice of events (with their Seq
// fields as yielded, not reassigned).
func collectEvents(t *testing.T, r *Reader) []trace.Event {
	t.Helper()
	var out []trace.Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// TestReadIndexRoundTrip: the footer written by the Writer decodes to an
// index whose chunks tile the stream exactly.
func TestReadIndexRoundTrip(t *testing.T) {
	tr := randomTrace(10*64+13, 5)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encodeChunked(t, tr, meta, 64)
	_, headerLen, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)), headerLen)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(tr.Len()); ix.Events != want {
		t.Fatalf("index counts %d events, want %d", ix.Events, want)
	}
	if want := (tr.Len() + 63) / 64; len(ix.Chunks) != want {
		t.Fatalf("index has %d chunks, want %d", len(ix.Chunks), want)
	}
	off := headerLen
	var seq uint64
	for i, c := range ix.Chunks {
		if c.Offset != off {
			t.Fatalf("chunk %d at offset %d, want %d (chunks must tile)", i, c.Offset, off)
		}
		if c.Start != seq {
			t.Fatalf("chunk %d starts at seq %d, want %d", i, c.Start, seq)
		}
		off += c.Length
		seq += c.Events
	}
	if ix.End != off {
		t.Fatalf("end marker at %d, want %d", ix.End, off)
	}
}

// TestParallelDecodeMatchesSerial is the core differential of the one
// decoder across its settings: inline and with 1 or 4 workers, over ReadAt
// and mmap, full-range and ranged, the Reader hands out exactly the columns
// of the encoded events, sequence numbers included.
func TestParallelDecodeMatchesSerial(t *testing.T) {
	meta := Meta{Workload: "ocean", Nodes: 16, Scale: 0.5, Seed: 7}
	dir := t.TempDir()
	for _, n := range []int{0, 1, 63, 64, 65, 64*7 + 11} {
		tr := randomTrace(n, int64(n)+3)
		path := filepath.Join(dir, strconv.Itoa(n)+".tsm")
		if err := os.WriteFile(path, encodeChunked(t, tr, meta, 64), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, rg := range [][2]uint64{{0, 0}, {uint64(n) / 4, 3*uint64(n)/4 + 1}} {
			lo, hi := min(rg[0], uint64(n)), uint64(n)
			if rg[1] > 0 {
				hi = min(rg[1], hi)
			}
			var want ChunkSoA
			want.AppendEvents(tr.Events[lo:hi])
			for _, workers := range []int{0, 1, 4} {
				for _, mmap := range []bool{false, true} {
					name := fmt.Sprintf("n=%d range=%v workers=%d mmap=%v", n, rg, workers, mmap)
					r, err := OpenFile(path, Options{Workers: workers, Mmap: mmap, From: rg[0], To: rg[1]})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if r.Meta() != meta {
						t.Fatalf("%s: meta = %+v, want %+v", name, r.Meta(), meta)
					}
					var got ChunkSoA
					if err := drainColumns(r, &got); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !slices.Equal(got.Seq, want.Seq) || !slices.Equal(got.Kind, want.Kind) || !slices.Equal(got.Node, want.Node) ||
						!slices.Equal(got.Block, want.Block) || !slices.Equal(got.Producer, want.Producer) {
						t.Fatalf("%s: columns differ from the encoded events (%d rows, want %d)", name, got.Len(), want.Len())
					}
					if f := r.Fraction(); hi > lo && f != 1 {
						t.Fatalf("%s: Fraction() = %v after drain, want 1", name, f)
					}
					if err := r.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// drainColumns appends every chunk r hands out to dst.
func drainColumns(r *Reader, dst *ChunkSoA) error {
	for {
		c, err := r.NextChunkSoA()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		dst.AppendSoA(c)
	}
}

// TestParallelDecodeRange: [From, To) selects exactly the sub-slice of the
// full event sequence, with original sequence numbers preserved.
func TestParallelDecodeRange(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*5+17, 9)
	meta := Meta{Workload: "zeus", Nodes: 16, Scale: 1, Seed: 2}
	data := encodeChunked(t, tr, meta, perCh)
	full := tr
	n := uint64(tr.Len())
	ranges := [][2]uint64{
		{0, 0},                 // whole stream
		{0, 1},                 // first event only
		{n - 1, n},             // last event only
		{perCh, 2 * perCh},     // exactly one chunk
		{perCh - 1, perCh + 1}, // straddles a boundary
		{17, n - 23},           // arbitrary interior
		{n, 0},                 // empty tail
		{n + 100, 0},           // past the end
	}
	for _, rg := range ranges {
		from, to := rg[0], rg[1]
		r, err := openBytes(data, Options{Workers: 3, From: from, To: to})
		if err != nil {
			t.Fatalf("[%d,%d): %v", from, to, err)
		}
		got := collectEvents(t, r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		hi := n
		if to > 0 && to < hi {
			hi = to
		}
		lo := from
		if lo > hi {
			lo = hi
		}
		want := full.Events[lo:hi]
		if len(got) != len(want) {
			t.Fatalf("[%d,%d): %d events, want %d", from, to, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d): event %d = %+v, want %+v (Seq must be the full-trace Seq)", from, to, i, got[i], want[i])
			}
		}
	}
	// An inverted range is an error up front.
	if _, err := openBytes(data, Options{From: 10, To: 5}); err == nil {
		t.Fatal("inverted range must fail to open")
	}
}

// oldVersionFiles returns a trace in the two earlier codec layouts: version
// 2 (no chunk-index footer) and version 1 (additionally no repeat field in
// the header). Neither is readable any more; they exist to check that.
func oldVersionFiles(t *testing.T) map[string][]byte {
	t.Helper()
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encode(t, randomTrace(100, 3), meta)
	// A version 2 file is a version 3 file without the footer.
	ix := mustIndex(t, data)
	trailer := binary.AppendUvarint([]byte{0}, ix.Events)
	v2 := append([]byte{}, data[:ix.End+int64(len(trailer))]...)
	v2[4] = 2
	// A version 1 header lacks the 8-byte repeat field: magic(4) +
	// version(1) + name length(1) + "db2"(3) + nodes(1) + scale(8) +
	// seed(1) puts it at offset 19 for this metadata.
	const repeatOff = 4 + 1 + 1 + 3 + 1 + 8 + 1
	v1 := append(append([]byte{}, v2[:repeatOff]...), v2[repeatOff+8:]...)
	v1[4] = 1
	return map[string][]byte{"v1": v1, "v2": v2}
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenIndexedRejectsOldVersions: v1/v2 files have no chunk index, and
// the index-first open is the only open, so OpenFile over either fails with
// a wrapped ErrVersion, through ReadAt and mmap alike.
func TestOpenIndexedRejectsOldVersions(t *testing.T) {
	for name, old := range oldVersionFiles(t) {
		path := writeTemp(t, name+".tsm", old)
		for _, mmap := range []bool{false, true} {
			if _, err := OpenFile(path, Options{Mmap: mmap}); !errors.Is(err, ErrVersion) {
				t.Errorf("%s mmap=%v: OpenFile err = %v, want ErrVersion", name, mmap, err)
			}
		}
	}
}

// TestReadIndexRejectsCorruption: every way the footer can lie about the
// stream must fail with ErrCorrupt/ErrTruncated at open or decode time,
// never decode silently wrong.
func TestReadIndexRejectsCorruption(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*4+5, 11)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 42}
	data := encodeChunked(t, tr, meta, perCh)

	open := func(b []byte) (*Reader, error) {
		return openBytes(b, Options{Workers: 2})
	}
	mustFailStructured := func(name string, b []byte) {
		t.Helper()
		r, err := open(b)
		if err == nil {
			_, err = Collect(r)
			r.Close()
		}
		if err == nil || !(errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated)) {
			t.Errorf("%s: err = %v, want ErrCorrupt/ErrTruncated", name, err)
		}
	}

	// Bad footer magic.
	bad := append([]byte{}, data...)
	bad[len(bad)-1] ^= 0xff
	mustFailStructured("bad magic", bad)

	// Truncated mid-footer.
	mustFailStructured("truncated footer", data[:len(data)-6])

	// Footer length pointing outside the file.
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint64(bad[len(bad)-12:], uint64(len(bad)))
	mustFailStructured("oversized payload length", bad)

	// An offset past EOF: rewrite the footer with a huge first offset.
	ix := mustIndex(t, data)
	forged := forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[0].Offset = int64(len(data)) + 1000
		return chunks[:1]
	}, ix.End)
	mustFailStructured("offset past EOF", forged)

	// An offset into the middle of a chunk: the count there is garbage
	// relative to the index, so decode must fail, not yield shifted events.
	forged = forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[1].Offset += 3
		return chunks
	}, ix.End)
	mustFailStructured("offset mid-chunk", forged)

	// Event counts that disagree with the trailer.
	forged = forgeFooter(t, data, func(chunks []ChunkRef) []ChunkRef {
		chunks[0].Events++
		return chunks
	}, ix.End)
	mustFailStructured("count mismatch", forged)
}

// mustIndex parses the header and index of a stream.
func mustIndex(t *testing.T, data []byte) *Index {
	t.Helper()
	_, headerLen, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ReadIndex(bytes.NewReader(data), int64(len(data)), headerLen)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// forgeFooter rewrites data's footer with a mutated chunk table, keeping
// everything before the footer intact.
func forgeFooter(t *testing.T, data []byte, mutate func([]ChunkRef) []ChunkRef, end int64) []byte {
	t.Helper()
	ix := mustIndex(t, data)
	suffix := binary.LittleEndian.Uint64(data[len(data)-12 : len(data)-4])
	body := data[:len(data)-12-int(suffix)]
	chunks := mutate(append([]ChunkRef{}, ix.Chunks...))
	return appendFooter(append([]byte{}, body...), chunks, end)
}

// TestParallelDecodeBoundedAlloc pins the free-list property: decoding a
// many-chunk file must allocate event-buffer memory proportional to the
// worker count and chunk size, not to the number of chunks — i.e. far less
// than materializing the trace would.
func TestParallelDecodeBoundedAlloc(t *testing.T) {
	const perCh = 512
	tr := randomTrace(perCh*96, 13) // 96 chunks, ~1.5 MiB materialized
	data := encodeChunked(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, perCh)
	materialized := uint64(tr.Len()) * uint64(48) // ~sizeof(trace.Event)

	r, err := openBytes(data, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int
	for {
		if _, err := r.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		n++
	}
	runtime.ReadMemStats(&after)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n != tr.Len() {
		t.Fatalf("decoded %d events, want %d", n, tr.Len())
	}
	// Generous bound: well under half of what materializing all chunks
	// would take. With the free list, steady-state allocation is a handful
	// of chunk buffers plus per-chunk bookkeeping.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > materialized/2 {
		t.Fatalf("decode allocated %d bytes for %d chunks (materialized ≈ %d); buffers are not recycling", delta, 96, materialized)
	}
}

// TestParallelDecodeEarlyClose: closing mid-stream must release the workers
// without wedging, and subsequent reads must fail.
func TestParallelDecodeEarlyClose(t *testing.T) {
	const perCh = 64
	tr := randomTrace(perCh*32, 15)
	data := encodeChunked(t, tr, Meta{Nodes: 16, Scale: 1, Seed: 1}, perCh)
	r, err := openBytes(data, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestFileReaderParallel: OpenFile over a real file written by WriteFile
// decodes every event with a worker pool, and a v2 file fails with
// ErrVersion at every worker setting instead of falling back to a serial
// decode.
func TestFileReaderParallel(t *testing.T) {
	tr := randomTrace(3*DefaultChunkEvents+7, 19)
	meta := Meta{Workload: "apache", Nodes: 8, Scale: 0.5, Seed: 3}
	path := filepath.Join(t.TempDir(), "t.tsm")
	if _, err := WriteFile(path, meta, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := collectEvents(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, tr.Events) {
		t.Fatalf("decoded %d events, want the %d written", len(got), tr.Len())
	}

	v2 := writeTemp(t, "v2.tsm", oldVersionFiles(t)["v2"])
	for _, workers := range []int{0, 2} {
		if _, err := OpenFile(v2, Options{Workers: workers}); !errors.Is(err, ErrVersion) {
			t.Fatalf("v2 file workers=%d: err = %v, want ErrVersion", workers, err)
		}
	}
}
