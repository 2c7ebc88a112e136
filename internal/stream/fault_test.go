package stream

// Fault injection across the decoder's settings — inline and pooled decode
// over an io.ReaderAt, and decode over an mmap — for an io.ReaderAt that
// reports io.EOF with its last full read, an I/O error inside one chunk, a
// file truncated after its index was read, and an event from a node the
// header does not have.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// drainSoA drains src through NextChunkSoA, returning the events seen before
// the terminal error (nil for a clean io.EOF).
func drainSoA(src SoASource) ([]trace.Event, error) {
	var out []trace.Event
	for {
		c, err := src.NextChunkSoA()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = c.AppendTo(out)
	}
}

// sameEvents fails the test unless got equals want, sequence numbers
// included.
func sameEvents(t *testing.T, what string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// eofAtEndReaderAt returns io.EOF alongside every read that reaches the end
// of its data, full reads included, as io.ReaderAt allows.
type eofAtEndReaderAt struct{ data []byte }

func (r eofAtEndReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := bytes.NewReader(r.data).ReadAt(p, off)
	if err == nil && off+int64(n) == int64(len(r.data)) {
		err = io.EOF
	}
	return n, err
}

// TestInlineDecodeEOFAtEnd: a byte source that reports io.EOF with its last
// full read — the header of a short file, the footer suffix, the last chunk
// — must decode to exactly the events of a plain read, inline and pooled,
// through both Next and NextChunkSoA.
func TestInlineDecodeEOFAtEnd(t *testing.T) {
	tr := randomTrace(5*64+13, 21)
	data := encodeChunked(t, tr, Meta{Workload: "db2", Nodes: 16}, 64)
	for _, workers := range []int{0, 2} {
		for _, chunks := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d chunks=%v", workers, chunks)
			r, err := Open(eofAtEndReaderAt{data}, int64(len(data)), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var got []trace.Event
			if chunks {
				got, err = drainSoA(r)
			} else {
				got, err = drainNext(r)
			}
			if err = CloseMerge(r, err); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameEvents(t, name, got, tr.Events)
		}
	}
}

// errInjected is the I/O error the fault-injecting readers return.
var errInjected = errors.New("injected I/O error")

// failAtReaderAt serves data, except that reads starting inside [lo, hi) —
// one chunk's bytes — fail with errInjected.
type failAtReaderAt struct {
	data   []byte
	lo, hi int64
}

func (r *failAtReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.lo && off < r.hi {
		return 0, errInjected
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// TestDecodeIOErrorInChunk: an I/O error inside chunk k surfaces wrapped —
// errors.Is finds it, with the decoder's context around it — after exactly
// the events of chunks 0..k-1, from inline and pooled decode.
func TestDecodeIOErrorInChunk(t *testing.T) {
	const perCh, k = 64, 3
	tr := randomTrace(8*perCh, 22)
	data := encodeChunked(t, tr, Meta{Workload: "db2", Nodes: 16}, perCh)
	ref := mustIndex(t, data).Chunks[k]
	check := func(name string, got []trace.Event, err error) {
		t.Helper()
		if !errors.Is(err, errInjected) || err == errInjected {
			t.Fatalf("%s: err = %v, want errInjected wrapped", name, err)
		}
		sameEvents(t, name, got, tr.Events[:k*perCh])
	}

	for _, workers := range []int{0, 1, 4} {
		pr, err := Open(&failAtReaderAt{data: data, lo: ref.Offset, hi: ref.Offset + ref.Length}, int64(len(data)), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainSoA(pr)
		check(fmt.Sprintf("workers=%d", workers), got, err)
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeTruncatedAfterIndex: a file truncated after the Reader has read
// its index must fail with ErrTruncated, never a crash or a clean stream —
// inline and with two workers, on the ReadAt path (short reads) and on the
// mmap path, where touching a page past the new end of file raises SIGBUS
// and the decoding goroutine recovers the fault, or where only the footer is
// cut and the end-of-stream check sees the file shrank. No goroutine may
// outlive Close.
func TestDecodeTruncatedAfterIndex(t *testing.T) {
	tr := randomTrace(200*64, 23)
	data := encodeChunked(t, tr, Meta{Workload: "db2", Nodes: 16}, 64)
	page := os.Getpagesize()
	if len(data) < 8*page {
		t.Fatalf("trace of %d bytes too small to truncate by pages", len(data))
	}
	cases := []struct {
		name string
		mmap bool
		size int
	}{
		// Half the file, on a page boundary: every page past the new end
		// faults instead of reading as the zero-filled tail of the last
		// page.
		{"readat", false, len(data) / 2 / page * page},
		{"mmap", true, len(data) / 2 / page * page},
		// Only the footer cut: every chunk decodes from intact pages, and
		// the reader must still notice the file shrank under it.
		{"mmap-tail", true, len(data) - 4},
	}
	for _, tc := range cases {
		mmap := tc.mmap
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{0, 2} {
				path := filepath.Join(t.TempDir(), "trace.tsm")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				r, err := OpenFile(path, Options{Workers: workers, Mmap: mmap})
				if err != nil {
					t.Fatal(err)
				}
				if m, ok := r.closer.(*Mmap); mmap && (!ok || !m.Mapped()) {
					r.Close()
					t.Skip("no memory mapping on this platform")
				}
				if err := os.Truncate(path, int64(tc.size)); err != nil {
					t.Fatal(err)
				}
				got, err := drainSoA(r)
				if !errors.Is(err, ErrTruncated) {
					t.Fatalf("workers=%d: err = %v after %d events, want ErrTruncated", workers, err, len(got))
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				for i := 0; runtime.NumGoroutine() > before; i++ {
					if i == 50 {
						t.Fatalf("workers=%d: goroutines leaked: %d before, %d after", workers, before, runtime.NumGoroutine())
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		})
	}
}

// TestWriterRejectsOutOfRangeNode: Writer.Write refuses an event from a node
// at or above the header's node count (mem.MaxNodes when the header records
// none), and the refusal leaves the writer usable.
func TestWriterRejectsOutOfRangeNode(t *testing.T) {
	for _, nodes := range []int{16, 0} {
		limit := nodes
		if nodes == 0 {
			limit = mem.MaxNodes
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, Meta{Workload: "db2", Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range []mem.NodeID{mem.NodeID(limit), 40 + mem.NodeID(limit), -1} {
			if err := w.Write(trace.Event{Kind: trace.KindConsumption, Node: node, Producer: mem.InvalidNode}); err == nil {
				t.Fatalf("Nodes %d: Write accepted an event from node %d", nodes, node)
			}
		}
		ok := trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(limit - 1), Block: 64, Producer: mem.InvalidNode}
		if err := w.Write(ok); err != nil {
			t.Fatalf("Nodes %d: Write of node %d after a refusal: %v", nodes, limit-1, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := openBytes(buf.Bytes(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainSoA(r)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, "written", got, []trace.Event{ok})
	}
}

// TestDecodeRejectsOutOfRangeNode: an event from node 40 in chunk k of a
// 16-node trace fails with ErrCorrupt after exactly the events of chunks
// 0..k-1, inline, with 1 or 4 workers, and over mmap.
func TestDecodeRejectsOutOfRangeNode(t *testing.T) {
	const perCh, k = 64, 3
	tr := randomTrace(8*perCh, 24)
	tr.Events[k*perCh+5].Node = 40
	// The writer refuses node 40 under a 16-node header, so write the trace
	// under a 64-node header and patch the node count to 16.
	wide, narrow := Meta{Workload: "db2", Nodes: 64}, Meta{Workload: "db2", Nodes: 16}
	data := encodeChunked(t, tr, wide, perCh)
	hdr := appendHeader(nil, narrow)
	if wideHdr := appendHeader(nil, wide); !bytes.HasPrefix(data, wideHdr) || len(hdr) != len(wideHdr) {
		t.Fatal("node count patch would change the header length")
	}
	copy(data, hdr)

	check := func(name string, got []trace.Event, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "node 40") {
			t.Fatalf("%s: err = %v, want ErrCorrupt naming node 40", name, err)
		}
		sameEvents(t, name, got, tr.Events[:k*perCh])
	}
	for _, workers := range []int{0, 1, 4} {
		pr, err := openBytes(data, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainSoA(pr)
		check(fmt.Sprintf("workers=%d", workers), got, err)
		if err := pr.Close(); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.tsm")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mr, err := OpenFile(path, Options{Workers: 2, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainSoA(mr)
	check("mmap", got, err)
	if err := mr.Close(); err != nil {
		t.Fatal(err)
	}
}
