// The trace reader: decode over the chunk index. Chunks are delta-reset at
// their boundaries (codec.go), so each decodes independently. With no
// workers the reader decodes each chunk inline, on the goroutine that asks
// for it. With N workers a dispatcher hands chunk refs to the workers in
// stream order while enqueueing each chunk's one-shot result channel onto a
// bounded window, and the consumer drains the window in order — parallel
// execution, identical output. Inline decode is the one-worker case without
// the goroutines: both read a chunk's bytes as one contiguous region (a
// single ReadAt into a reusable scratch buffer, or a zero-copy view of
// mmap'd pages) and batch-decode it into a struct-of-arrays ChunkSoA region
// (soa.go). Pooled regions recycle through a free list, so decode allocates
// O(workers·chunk), not O(chunks).
package stream

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tsm/internal/obs"
	"tsm/internal/trace"
)

// decodeWorkerLane0 is the tracer lane of the first decode worker. Pipeline
// lanes are 0 (producer) and 1..N (consumers); decode workers sit far above
// so the two groups never collide even for wide sweeps.
const decodeWorkerLane0 = 1000

// Options configures a trace open.
type Options struct {
	// Workers is the number of decode goroutines: 0 decodes each chunk
	// inline on the goroutine calling Next/NextChunkSoA, N > 0 uses N
	// workers, and a negative count one per core (Workers(0)).
	Workers int
	// From and To bound replay to events with sequence numbers in
	// [From, To); To == 0 means the end of the trace. Events keep the
	// sequence numbers they have in the full trace.
	From, To uint64
	// Mmap makes OpenFile map the file into memory (OpenFileMmap) instead
	// of issuing a ReadAt per chunk, so chunks decode straight out of the
	// mapped pages. It changes only the byte source: Open takes whatever
	// io.ReaderAt it is given, and on platforms without mmap support the
	// mapping falls back to ReadAt, producing identical output.
	Mmap bool
	// Metrics, when non-nil, receives per-worker and aggregate decode
	// counters (stream.decode.*) from pooled decode.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per chunk a worker decodes,
	// on a lane per worker.
	Tracer *obs.Tracer
}

// Reader decodes a trace over its chunk index, in stream order. It
// implements Source and SoASource and must be Closed to release its file
// and, with workers, its goroutines.
type Reader struct {
	meta  Meta
	index *Index
	size  int64
	ra    io.ReaderAt
	opt   Options

	// bufLen is the read buffer a decoding goroutine needs: the longest
	// selected chunk, or 0 when chunks come straight from a memory mapping.
	bufLen int64

	// Inline decode: the chunks still to decode, the read buffer and the
	// one decoded chunk.
	todo    []ChunkRef
	scratch []byte
	inline  ChunkSoA

	// Pooled decode (nil channels when inline).
	results chan chan chunkResult
	free    chan *ChunkSoA
	stop    chan struct{}
	wg      sync.WaitGroup

	cur     *ChunkSoA // current in-order chunk region; rows [pos, hi) remain
	pos, hi int
	view    ChunkSoA // NextChunkSoA's reusable column view into cur
	err     error

	selected uint64
	consumed atomic.Uint64

	closeOnce sync.Once
	closeErr  error
	closer    io.Closer
}

type job struct {
	ref ChunkRef
	out chan chunkResult
}

type chunkResult struct {
	soa    *ChunkSoA
	lo, hi int
	err    error
}

// errReaderClosed surfaces on chunks abandoned by Close before dispatch.
var errReaderClosed = fmt.Errorf("stream: reader closed")

// OpenFile opens the trace at path. With opt.Mmap the file is mapped into
// memory and chunks decode zero-copy from the mapping. It fails with
// ErrBadMagic, a wrapped ErrVersion on any other codec version, ErrTruncated
// on a file without a complete footer and ErrCorrupt on an invalid header
// or index. The caller must Close the reader.
func OpenFile(path string, opt Options) (*Reader, error) {
	var (
		ra   io.ReaderAt
		size int64
		c    io.Closer
	)
	if opt.Mmap {
		m, err := OpenFileMmap(path)
		if err != nil {
			return nil, err
		}
		ra, size, c = m, m.Size(), m
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		ra, size, c = f, st.Size(), f
	}
	r, err := Open(ra, size, opt)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.closer = c
	return r, nil
}

// Open builds a Reader over any random-access byte range holding a complete
// trace of the given size (a file, or bytes.Reader in tests and fuzzing). It
// reads the header and the chunk index and fails as OpenFile does. It does
// not take ownership of ra.
func Open(ra io.ReaderAt, size int64, opt Options) (*Reader, error) {
	meta, headerLen, err := readHeader(ra, size)
	if err != nil {
		return nil, err
	}
	index, err := ReadIndex(ra, size, headerLen)
	if err != nil {
		return nil, err
	}
	if opt.To > 0 && opt.To < opt.From {
		return nil, fmt.Errorf("stream: invalid event range [%d, %d)", opt.From, opt.To)
	}
	sel := selectChunks(index, opt.From, opt.To)
	r := &Reader{meta: meta, index: index, size: size, ra: ra, opt: opt, selected: uint64(len(sel))}
	if m, ok := ra.(*Mmap); !ok || !m.Mapped() {
		for _, c := range sel {
			r.bufLen = max(r.bufLen, c.Length)
		}
	}
	workers := opt.Workers
	if workers < 0 {
		workers = Workers(0)
	}
	if workers == 0 {
		r.todo = sel
		return r, nil
	}
	// The window bounds in-flight chunks (decoded-but-unconsumed); a little
	// beyond the worker count keeps workers from idling on a slow consumer.
	window := workers + 2
	r.results = make(chan chan chunkResult, window)
	r.free = make(chan *ChunkSoA, window+workers)
	r.stop = make(chan struct{})
	jobs := make(chan job)
	r.wg.Add(1 + workers)
	for i := 0; i < workers; i++ {
		go r.worker(i, jobs)
	}
	go r.dispatch(sel, jobs)
	return r, nil
}

// selectChunks returns the chunks overlapping the event range [from, to).
func selectChunks(ix *Index, from, to uint64) []ChunkRef {
	lo, hi := 0, len(ix.Chunks)
	for lo < hi && ix.Chunks[lo].Start+ix.Chunks[lo].Events <= from {
		lo++
	}
	if to > 0 {
		for hi > lo && ix.Chunks[hi-1].Start >= to {
			hi--
		}
	}
	return ix.Chunks[lo:hi]
}

// dispatch feeds chunk refs to the workers in stream order, enqueueing each
// chunk's result channel onto the bounded window first so the consumer sees
// chunks in exactly index order regardless of which worker finishes when.
func (r *Reader) dispatch(sel []ChunkRef, jobs chan<- job) {
	defer r.wg.Done()
	defer close(r.results)
	defer close(jobs)
	for _, ref := range sel {
		out := make(chan chunkResult, 1)
		select {
		case r.results <- out:
		case <-r.stop:
			return
		}
		select {
		case jobs <- job{ref: ref, out: out}:
		case <-r.stop:
			out <- chunkResult{err: errReaderClosed}
			return
		}
	}
}

// worker decodes chunks from jobs until the channel closes, into recycled
// SoA regions, so per-chunk allocation is limited to free-list misses.
func (r *Reader) worker(id int, jobs <-chan job) {
	defer r.wg.Done()
	opt := r.opt
	chunks := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.chunks", id))
	events := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.events", id))
	busyNs := opt.Metrics.Counter(fmt.Sprintf("stream.decode.worker.%d.busy_ns", id))
	allChunks := opt.Metrics.Counter("stream.decode.chunks")
	allEvents := opt.Metrics.Counter("stream.decode.events")
	opt.Tracer.NameLane(decodeWorkerLane0+id, fmt.Sprintf("decode worker %d", id))
	var scratch []byte
	for jb := range jobs {
		var soa *ChunkSoA
		select {
		case soa = <-r.free:
			soa.Reset()
		default:
			soa = &ChunkSoA{}
		}
		sp := opt.Tracer.Begin("chunk", "decode", decodeWorkerLane0+id)
		var t0 time.Time
		if opt.Metrics != nil {
			t0 = time.Now()
		}
		res := r.decode(jb.ref, &scratch, soa)
		if opt.Metrics != nil {
			busyNs.Add(uint64(time.Since(t0).Nanoseconds()))
		}
		sp.Arg("events", jb.ref.Events).Arg("offset", jb.ref.Offset).End()
		if res.err == nil {
			chunks.Inc()
			allChunks.Inc()
			events.Add(uint64(res.hi - res.lo))
			allEvents.Add(uint64(res.hi - res.lo))
		}
		jb.out <- res
	}
}

// decode reads and decodes the chunk at ref into soa, then trims it to the
// requested event range; events keep their full-trace sequence numbers.
func (r *Reader) decode(ref ChunkRef, scratch *[]byte, soa *ChunkSoA) chunkResult {
	if int64(cap(*scratch)) < r.bufLen {
		*scratch = make([]byte, 0, r.bufLen) // one buffer fits every chunk
	}
	res := chunkResult{soa: soa}
	*scratch, res.err = decodeChunk(r.ra, ref, r.meta.nodeLimit(), *scratch, soa)
	if res.err != nil {
		return res
	}
	res.hi = soa.Len()
	if r.opt.From > ref.Start {
		res.lo = int(r.opt.From - ref.Start)
	}
	if r.opt.To > 0 && r.opt.To < ref.Start+uint64(res.hi) {
		res.hi = int(r.opt.To - ref.Start)
	}
	res.hi = max(res.hi, res.lo)
	return res
}

// decodeChunk reads the chunk at ref and decodes it into dst, returning the
// possibly-grown scratch buffer. A file truncated while mapped faults
// (SIGBUS) as soon as the decoder touches a page past its new end; with
// SetPanicOnFault on this goroutine the fault panics instead of killing the
// process, and the recovery reports it as a chunk error wrapping
// ErrTruncated. Any other panic is a bug and propagates.
func decodeChunk(ra io.ReaderAt, ref ChunkRef, nodes uint64, scratch []byte, dst *ChunkSoA) (newScratch []byte, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if f, ok := v.(interface {
			runtime.Error
			Addr() uintptr
		}); ok {
			newScratch = scratch
			err = fmt.Errorf("stream: chunk at offset %d: memory fault at %#x (file truncated while mapped?): %w", ref.Offset, f.Addr(), ErrTruncated)
			return
		}
		panic(v)
	}()
	region, scratch, err := readChunkRegion(ra, ref, scratch)
	if err != nil {
		return scratch, err
	}
	return scratch, decodeChunkRegion(region, ref, nodes, dst)
}

// Meta returns the stream metadata decoded from the header.
func (r *Reader) Meta() Meta { return r.meta }

// Index returns the decoded chunk index.
func (r *Reader) Index() *Index { return r.index }

// Fraction reports the fraction of selected chunks consumed so far, in
// [0, 1]. Safe to call from any goroutine while another decodes.
func (r *Reader) Fraction() float64 {
	if r.selected == 0 {
		return 0
	}
	return float64(r.consumed.Load()) / float64(r.selected)
}

// Next implements Source, returning io.EOF after the last selected event
// and the first decode error otherwise.
func (r *Reader) Next() (trace.Event, error) {
	if r.err != nil {
		return trace.Event{}, r.err
	}
	for r.pos >= r.hi {
		if !r.fetch() {
			return trace.Event{}, r.err
		}
	}
	e := r.cur.Event(r.pos)
	r.pos++
	return e, nil
}

// NextChunkSoA implements SoASource: a column view of the remaining events
// of the current chunk, valid until the next NextChunkSoA/Next call.
func (r *Reader) NextChunkSoA() (*ChunkSoA, error) {
	if r.err != nil {
		return nil, r.err
	}
	for r.pos >= r.hi {
		if !r.fetch() {
			return nil, r.err
		}
	}
	r.view = r.cur.Slice(r.pos, r.hi)
	r.pos = r.hi
	return &r.view, nil
}

// fetch advances to the next in-order chunk, recycling the previous chunk's
// region; it reports false (with r.err set) at end of stream or on error.
func (r *Reader) fetch() bool {
	r.recycle(r.cur)
	r.cur = nil
	for {
		res, ok := r.next()
		if !ok {
			r.err = io.EOF
			if m, ok := r.closer.(*Mmap); ok && m.shrunk() {
				r.err = fmt.Errorf("stream: %w: file shrank while mapped", ErrTruncated)
			}
			return false
		}
		if res.err != nil {
			r.err = res.err
			return false
		}
		r.consumed.Add(1)
		if res.hi <= res.lo {
			r.recycle(res.soa)
			continue
		}
		r.cur = res.soa
		r.pos = res.lo
		r.hi = res.hi
		return true
	}
}

// next returns the next chunk in stream order, false after the last: decoded
// here when inline, else the head of the workers' window.
func (r *Reader) next() (chunkResult, bool) {
	if r.results == nil {
		if len(r.todo) == 0 {
			return chunkResult{}, false
		}
		ref := r.todo[0]
		r.todo = r.todo[1:]
		r.inline.Reset()
		return r.decode(ref, &r.scratch, &r.inline), true
	}
	out, ok := <-r.results
	if !ok {
		return chunkResult{}, false
	}
	return <-out, true
}

// recycle returns a pooled region to the free list (a no-op inline, where
// the free list is nil).
func (r *Reader) recycle(soa *ChunkSoA) {
	if soa == nil {
		return
	}
	select {
	case r.free <- soa:
	default:
	}
}

// Close stops the workers, waits for them, and closes the underlying file
// (when opened via OpenFile). Idempotent.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		r.todo = nil
		if r.stop != nil {
			close(r.stop)
			// Drain the window so the dispatcher unblocks; every enqueued
			// result channel is buffered and guaranteed a send, so nothing
			// here can wedge.
			for range r.results {
			}
			r.wg.Wait()
		}
		if r.closer != nil {
			r.closeErr = r.closer.Close()
		}
	})
	return r.closeErr
}
