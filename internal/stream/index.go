// The chunk index: a footer appended after the trailer, mapping every chunk
// to its file offset and event count. Because the fixed-width suffix
// (payload length + magic) sits at the very end of the file, a reader
// recovers the whole index with a few ReadAt calls and no stream decode —
// which is what partial replay (-from/-to) and parallel-by-chunk decode
// (reader.go) build on.
package stream

import (
	"encoding/binary"
	"fmt"
	"io"
)

// IndexMagic terminates the chunk-index footer.
var IndexMagic = [4]byte{'T', 'S', 'M', 'I'}

// indexSuffixLen is the fixed-width tail of the footer: an 8-byte little
// endian payload length followed by IndexMagic.
const indexSuffixLen = 12

// ChunkRef locates one chunk inside a trace file.
type ChunkRef struct {
	// Offset is the absolute file offset of the chunk's leading event-count
	// uvarint.
	Offset int64
	// Length is the chunk's extent in bytes (count uvarint included).
	Length int64
	// Events is the number of events the chunk holds.
	Events uint64
	// Start is the sequence number of the chunk's first event.
	Start uint64
}

// Index is the decoded chunk index of one trace file.
type Index struct {
	// Chunks lists every chunk in stream order.
	Chunks []ChunkRef
	// Events is the total event count (equal to the trailer's).
	Events uint64
	// End is the absolute file offset of the end-of-stream marker.
	End int64
}

// appendFooter encodes the chunk-index footer (payload + suffix) for chunks
// ending at the end-marker offset end, appending it to dst.
func appendFooter(dst []byte, chunks []ChunkRef, end int64) []byte {
	payloadStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(chunks)))
	prev := int64(0)
	for _, c := range chunks {
		dst = binary.AppendUvarint(dst, uint64(c.Offset-prev))
		dst = binary.AppendUvarint(dst, c.Events)
		prev = c.Offset
	}
	dst = binary.AppendUvarint(dst, uint64(end-prev))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(dst)-payloadStart))
	return append(dst, IndexMagic[:]...)
}

// walkFooterPayload decodes a footer payload into an index of chunk
// offsets, event counts and start sequence numbers, plus the absolute
// end-marker offset. Offsets must increase and lie past the header, every
// chunk must hold 1..maxChunkEvents events and the payload must be consumed
// exactly; anything else fails with ErrCorrupt (or ErrTruncated when the
// payload ends mid-varint). Lengths are left for ReadIndex to fill in.
func walkFooterPayload(payload []byte, headerLen int64) (*Index, error) {
	pos := 0
	uvarint := func(what string) (uint64, error) {
		v, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return 0, varintErr(w, what)
		}
		pos += w
		return v, nil
	}
	count, err := uvarint("footer chunk count")
	if err != nil {
		return nil, err
	}
	// Every entry takes at least two bytes, so a count beyond that is a
	// corrupt payload, not an allocation to honour.
	if count > uint64(len(payload))/2 {
		return nil, fmt.Errorf("%w: footer indexes %d chunks in %d bytes", ErrCorrupt, count, len(payload))
	}
	ix := &Index{Chunks: make([]ChunkRef, 0, count)}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, err := uvarint("footer offset")
		if err != nil {
			return nil, err
		}
		if d > uint64(1)<<62 || (i > 0 && d == 0) {
			return nil, fmt.Errorf("%w: footer offsets not increasing", ErrCorrupt)
		}
		off := prev + int64(d)
		if off < headerLen {
			return nil, fmt.Errorf("%w: footer offset %d inside header", ErrCorrupt, off)
		}
		events, err := uvarint("footer event count")
		if err != nil {
			return nil, err
		}
		if events == 0 || events > maxChunkEvents {
			return nil, fmt.Errorf("%w: footer chunk of %d events", ErrCorrupt, events)
		}
		ix.Chunks = append(ix.Chunks, ChunkRef{Offset: off, Events: events, Start: ix.Events})
		ix.Events += events
		prev = off
	}
	d, err := uvarint("footer end offset")
	if err != nil {
		return nil, err
	}
	if d > uint64(1)<<62 || (count > 0 && d == 0) {
		return nil, fmt.Errorf("%w: footer end offset not past last chunk", ErrCorrupt)
	}
	if pos != len(payload) {
		return nil, fmt.Errorf("%w: footer length %d, decoded %d bytes", ErrCorrupt, len(payload), pos)
	}
	ix.End = prev + int64(d)
	return ix, nil
}

// ReadIndex recovers the chunk index of a trace of the given size via ra,
// without decoding the stream. headerLen is the length of the
// already-parsed header (see readHeader). A file with no complete footer at
// its end — cut short, or with bytes appended after it — fails with
// ErrTruncated. Every offset is validated against the file extents and the
// footer is cross-checked against the trailer, so a corrupt index fails
// here with ErrCorrupt rather than sending the decoder to arbitrary offsets.
func ReadIndex(ra io.ReaderAt, size, headerLen int64) (*Index, error) {
	if size < headerLen+indexSuffixLen {
		return nil, fmt.Errorf("stream: reading footer: %w", ErrTruncated)
	}
	var suffix [indexSuffixLen]byte
	if err := readAt(ra, suffix[:], size-indexSuffixLen); err != nil {
		return nil, fmt.Errorf("stream: reading footer suffix: %w", err)
	}
	if *(*[4]byte)(suffix[8:]) != IndexMagic {
		return nil, fmt.Errorf("stream: no footer magic at end of file (cut short, or bytes after the footer): %w", ErrTruncated)
	}
	payloadLen := binary.LittleEndian.Uint64(suffix[:8])
	if payloadLen == 0 || payloadLen > uint64(size-headerLen-indexSuffixLen) {
		return nil, fmt.Errorf("%w: footer length %d", ErrCorrupt, payloadLen)
	}
	footerStart := size - indexSuffixLen - int64(payloadLen)
	payload := make([]byte, payloadLen)
	if err := readAt(ra, payload, footerStart); err != nil {
		return nil, fmt.Errorf("stream: reading footer: %w", err)
	}
	ix, err := walkFooterPayload(payload, headerLen)
	if err != nil {
		return nil, err
	}
	end := ix.End
	if end >= footerStart {
		return nil, fmt.Errorf("%w: footer end offset %d past footer", ErrCorrupt, end)
	}
	// The chunks must tile the byte range [headerLen, end) exactly — chunk N
	// ends where chunk N+1 begins by construction (Length below), so the only
	// possible gap is between the header and the first chunk (or the end
	// marker, for an empty trace). A gap would be bytes the index silently
	// skips: silent-corruption territory.
	bodyStart := end
	if len(ix.Chunks) > 0 {
		bodyStart = ix.Chunks[0].Offset
	}
	if bodyStart != headerLen {
		return nil, fmt.Errorf("%w: footer leaves a %d-byte gap after the header", ErrCorrupt, bodyStart-headerLen)
	}
	for i := range ix.Chunks {
		next := end
		if i+1 < len(ix.Chunks) {
			next = ix.Chunks[i+1].Offset
		}
		ix.Chunks[i].Length = next - ix.Chunks[i].Offset
		// A chunk needs at least one count byte plus four bytes per event
		// (kind, node, block delta, producer — one byte each at minimum).
		if ix.Chunks[i].Length <= int64(ix.Chunks[i].Events)*4 {
			return nil, fmt.Errorf("%w: footer chunk %d shorter than its events", ErrCorrupt, i)
		}
	}
	// Cross-check the trailer: the bytes between the end marker and the
	// footer must be exactly the end marker and a count matching the index.
	tail := make([]byte, footerStart-end)
	if err := readAt(ra, tail, end); err != nil {
		return nil, fmt.Errorf("stream: reading trailer: %w", err)
	}
	marker, m := binary.Uvarint(tail)
	if m <= 0 || marker != 0 {
		return nil, fmt.Errorf("%w: end marker missing at footer end offset", ErrCorrupt)
	}
	total, w := binary.Uvarint(tail[m:])
	if w <= 0 {
		return nil, varintErr(w, "trailer")
	}
	if total != ix.Events {
		return nil, fmt.Errorf("%w: trailer count %d, footer counts %d", ErrCorrupt, total, ix.Events)
	}
	if m+w != len(tail) {
		return nil, fmt.Errorf("%w: trailing data between trailer and footer", ErrCorrupt)
	}
	return ix, nil
}
