package pipeline

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// errInjected is the I/O error the fault-injecting readers return.
var errInjected = errors.New("injected I/O error")

// failAtReaderAt serves data, except that reads starting inside [lo, hi)
// fail.
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

// TestDecodeIOErrorReachesEveryConsumer: an I/O error injected inside chunk
// k of an encoded trace — read by the inline decoder and by four decode
// workers — reaches all three consumers as their terminal error after
// exactly the events of chunks 0..k-1, and Run returns it.
func TestDecodeIOErrorReachesEveryConsumer(t *testing.T) {
	const k = 2
	events := makeEvents(4*stream.DefaultChunkEvents + 100)
	var buf bytes.Buffer
	w, err := stream.NewWriter(&buf, stream.Meta{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ix, err := stream.Open(bytes.NewReader(data), int64(len(data)), stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := ix.Index().Chunks[k]
	ix.Close()
	ra := &failAtReaderAt{data: data, lo: ref.Offset, hi: ref.Offset + ref.Length}

	run := func(t *testing.T, src stream.Source) {
		records := []*recordConsumer{{}, {}, {}}
		err := Run(src, records[0], records[1], records[2])
		if !errors.Is(err, errInjected) {
			t.Fatalf("Run = %v, want the injected error", err)
		}
		for ci, rec := range records {
			if !errors.Is(rec.terminal, errInjected) {
				t.Fatalf("consumer %d terminal = %v, want the injected error", ci, rec.terminal)
			}
			if len(rec.events) != int(ref.Start) {
				t.Fatalf("consumer %d saw %d events before the error, want %d", ci, len(rec.events), ref.Start)
			}
			for i, e := range rec.events {
				if e != events[i] {
					t.Fatalf("consumer %d event %d = %+v, want %+v", ci, i, e, events[i])
				}
			}
		}
	}
	t.Run("serial", func(t *testing.T) {
		r, err := stream.Open(ra, int64(len(data)), stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		run(t, r)
	})
	t.Run("parallel", func(t *testing.T) {
		r, err := stream.Open(ra, int64(len(data)), stream.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		run(t, r)
	})
}

// TestRunAllocatesRingNotTrace pins the engine's bounded-memory claim: a Run
// allocates O(ring) bytes, not O(trace). Over 4N events it must allocate
// within one ring's worth of chunk columns of what it allocates over N —
// for one consumer and for eight, over a per-event source and over a
// column source.
func TestRunAllocatesRingNotTrace(t *testing.T) {
	const n = 64 * DefaultChunkEvents
	rowBytes := unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(trace.EventKind(0)) +
		2*unsafe.Sizeof(mem.NodeID(0)) + unsafe.Sizeof(mem.BlockAddr(0))
	ring := uint64(DefaultChunkBuffer*DefaultChunkEvents) * uint64(rowBytes)
	short, long := makeEvents(n), makeEvents(4*n)
	for _, consumers := range []int{1, 8} {
		for _, columns := range []bool{false, true} {
			alloc := func(events []trace.Event) uint64 {
				var src stream.Source = stream.NewSliceSource(events)
				if columns {
					src = &chunkedSource{events: events, chunk: DefaultChunkEvents}
				}
				cs := make([]Consumer, consumers)
				for i := range cs {
					cs[i] = &drainCount{}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := Run(src, cs...); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			alloc(short) // warm-up
			a, b := alloc(short), alloc(long)
			if b > a+ring || a > b+ring {
				t.Errorf("consumers=%d columns=%v: Run allocated %d B over %d events and %d B over %d, want within one ring (%d B)",
					consumers, columns, a, n, b, 4*n, ring)
			}
		}
	}
}
