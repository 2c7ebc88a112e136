package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
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

// FuzzDecode feeds arbitrary bytes to the trace decoder. The decoder must
// never panic: every input either decodes to a finite event stream ending in
// io.EOF or fails with one of the codec's structured errors. The corpus is
// seeded with small valid streams (several chunk geometries, empty streams,
// negative block deltas, invalid producers) so the fuzzer starts from the
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
	f.Add(valid[:len(valid)-3])           // truncated trailer
	f.Add(valid[:9])                      // truncated metadata
	f.Add([]byte("TSMS"))                 // magic only
	f.Add([]byte{'T', 'S', 'M', 'S', 99}) // bad version
	f.Add([]byte{})
	// Version 3 footer vectors: truncated mid-index, corrupted index magic,
	// and a doubly-concatenated stream (two complete traces back to back —
	// the trailing-garbage regression the EOF check exists for).
	f.Add(valid[:len(valid)-indexSuffixLen/2])
	badMagic := append([]byte(nil), valid...)
	copy(badMagic[len(badMagic)-len(IndexMagic):], "XXXX")
	f.Add(badMagic)
	f.Add(append(append([]byte(nil), valid...), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			// Header rejection must be one of the structured errors (or an
			// io error surfaced verbatim) — never a panic.
			return
		}
		if r.Meta().Nodes > mem.MaxNodes {
			t.Fatalf("decoded metadata escaped the node bound: %+v", r.Meta())
		}
		var n uint64
		for {
			e, err := r.Next()
			if err == io.EOF {
				// A well-formed end: the trailer count matched.
				break
			}
			if err != nil {
				if errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
					return
				}
				t.Fatalf("decode failed with an unstructured error: %v", err)
			}
			if e.Seq != n {
				t.Fatalf("event %d decoded with Seq %d; sequence numbers must be dense", n, e.Seq)
			}
			n++
		}
	})
}

// collectSoA decodes data by walking the chunk index directly with the batch
// struct-of-arrays decoder — parseHeader, ReadIndex, then readChunkRegion +
// decodeChunkRegion per chunk, no parallel plumbing — returning the
// concatenated events. It mirrors OpenIndexed's open-side acceptance exactly
// so the three decoders (streaming, indexed, batch SoA) can be held to an
// identical accepted-file set.
func collectSoA(data []byte) ([]trace.Event, error) {
	ra := bytes.NewReader(data)
	size := int64(len(data))
	pr := &posReader{r: bufio.NewReader(io.NewSectionReader(ra, 0, size))}
	meta, version, err := parseHeader(pr)
	if err != nil {
		return nil, err
	}
	if version < Version {
		return nil, fmt.Errorf("version %d: %w", version, ErrNoIndex)
	}
	ix, err := ReadIndex(ra, size, pr.n)
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

// FuzzDecodeIndexed feeds arbitrary bytes to the indexed (seeking, parallel)
// open path with the streaming decoder as the differential oracle, and the
// batch struct-of-arrays decoder (collectSoA) as a third: OpenIndexed must
// never panic, and whenever it succeeds, both the parallel decode and the
// direct SoA walk must yield exactly the event stream the serial Reader
// yields — same events, same sequence numbers, same clean EOF. An input any
// one of the three rejects that another decodes (or decodes differently)
// would be a silent-corruption hole.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		soa, soaErr := collectSoA(data)
		pr, err := OpenIndexed(bytes.NewReader(data), int64(len(data)), ParallelOptions{Workers: 2})
		if err != nil {
			if soaErr == nil {
				t.Fatalf("batch SoA walk accepted a stream the indexed open rejects: %v", err)
			}
			return // structured rejection; FuzzDecode covers the serial side
		}
		defer pr.Close()
		got, gotErr := Collect(pr)

		sr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("indexed open accepted a stream the serial reader rejects at the header: %v", err)
		}
		want, wantErr := Collect(sr)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("indexed decode err = %v, serial decode err = %v", gotErr, wantErr)
		}
		if (soaErr == nil) != (wantErr == nil) {
			t.Fatalf("batch SoA decode err = %v, serial decode err = %v", soaErr, wantErr)
		}
		if gotErr != nil {
			return // all three rejected the body; the errors need not match textually
		}
		if got.Len() != want.Len() {
			t.Fatalf("indexed decode yielded %d events, serial %d", got.Len(), want.Len())
		}
		if len(soa) != want.Len() {
			t.Fatalf("batch SoA decode yielded %d events, serial %d", len(soa), want.Len())
		}
		for i := range want.Events {
			if got.Events[i] != want.Events[i] {
				t.Fatalf("event %d: indexed %+v != serial %+v", i, got.Events[i], want.Events[i])
			}
			if soa[i] != want.Events[i] {
				t.Fatalf("event %d: batch SoA %+v != serial %+v", i, soa[i], want.Events[i])
			}
		}
	})
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
		data := encodeEvents(t, meta, events, chunk)
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Collect(r)
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
