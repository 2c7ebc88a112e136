package tse

import (
	"tsm/internal/mem"
)

// streamSource identifies where a FIFO's addresses come from: a position in
// some node's CMOB.
type streamSource struct {
	node mem.NodeID
	// nextOffset is the CMOB offset of the last address already read into
	// the FIFO; refills continue from here.
	nextOffset uint64
	exhausted  bool
}

// streamFIFO is one of the FIFO queues inside a stream queue. It buffers
// addresses read from one recent consumer's CMOB. addrs is the live window
// of buf, a buffer of the FIFO capacity that the slot keeps across stream
// allocations.
type streamFIFO struct {
	source streamSource
	addrs  []mem.BlockAddr
	buf    []mem.BlockAddr
}

// reset empties the FIFO for a new source, keeping its buffer.
func (f *streamFIFO) reset(src streamSource, capacity int) {
	if f.buf == nil {
		f.buf = make([]mem.BlockAddr, 0, capacity)
	}
	f.source = src
	f.addrs = f.buf[:0]
}

// compact moves the live addresses to the front of the buffer, so a refill
// up to the FIFO capacity appends without growing it.
func (f *streamFIFO) compact() {
	f.addrs = f.buf[:copy(f.buf[:cap(f.buf)], f.addrs)]
}

func (f *streamFIFO) empty() bool { return len(f.addrs) == 0 }

func (f *streamFIFO) head() (mem.BlockAddr, bool) {
	if len(f.addrs) == 0 {
		return 0, false
	}
	return f.addrs[0], true
}

func (f *streamFIFO) pop() {
	if len(f.addrs) > 0 {
		f.addrs = f.addrs[1:]
	}
}

// contains reports whether the FIFO holds the block anywhere (used to let
// the SVB window tolerate small reorderings: a miss that matches a block a
// few entries down the FIFO still identifies this stream).
func (f *streamFIFO) contains(b mem.BlockAddr) int {
	for i, a := range f.addrs {
		if a == b {
			return i
		}
	}
	return -1
}

// dropThrough removes entries up to and including index i.
func (f *streamFIFO) dropThrough(i int) {
	if i+1 >= len(f.addrs) {
		f.addrs = f.addrs[:0]
		return
	}
	f.addrs = f.addrs[i+1:]
}

// streamQueue groups the FIFOs fetched for one stream head and tracks the
// comparison/stall state of Section 3.3.
type streamQueue struct {
	id   int
	head mem.BlockAddr
	// slots are the queue's ComparedStreams FIFO slots; fifos is the
	// prefix of them in use.
	slots       []streamFIFO
	fifos       []streamFIFO
	stalled     bool
	outstanding int    // blocks from this queue currently sitting in the SVB
	hits        uint64 // SVB hits attributed to this queue (stream length)
	fetched     uint64 // blocks streamed into the SVB by this queue
	lru         uint64
	active      bool
}

// hasLiveFIFO reports whether any FIFO can still supply addresses
// (non-empty or refillable).
func (q *streamQueue) hasLiveFIFO() bool {
	for i := range q.fifos {
		if f := &q.fifos[i]; !f.empty() || !f.source.exhausted {
			return true
		}
	}
	return false
}

// headsAgree checks whether every non-empty FIFO agrees on the next address.
// It returns the agreed address, whether agreement holds, and whether any
// address is available at all.
func (q *streamQueue) headsAgree() (mem.BlockAddr, bool, bool) {
	var agreed mem.BlockAddr
	found := false
	for i := range q.fifos {
		h, ok := q.fifos[i].head()
		if !ok {
			continue
		}
		if !found {
			agreed = h
			found = true
			continue
		}
		if h != agreed {
			return 0, false, true
		}
	}
	if !found {
		return 0, false, false
	}
	return agreed, true, true
}

// popAgreed removes the agreed head from every FIFO whose head matches it.
func (q *streamQueue) popAgreed(b mem.BlockAddr) {
	for i := range q.fifos {
		if h, ok := q.fifos[i].head(); ok && h == b {
			q.fifos[i].pop()
		}
	}
}

// selectFIFO keeps only the FIFO at index keep, discarding the others'
// contents (the reselection step after a stall, Section 3.3). It swaps the
// kept FIFO into the first slot, so every slot keeps a buffer of its own.
func (q *streamQueue) selectFIFO(keep int) {
	q.fifos[0], q.fifos[keep] = q.fifos[keep], q.fifos[0]
	q.fifos = q.fifos[:1]
}

// matchStalledHead checks whether a processor miss to b matches one of the
// stalled queue's FIFO heads (or an entry within the SVB-lookahead window of
// a FIFO). It returns the index of the matching FIFO and the position of the
// match, or (-1, -1). Only the first window entries of each FIFO are
// scanned: the first match there is the first match in the whole FIFO
// whenever that one lies inside the window.
func (q *streamQueue) matchStalledHead(b mem.BlockAddr, window int) (int, int) {
	for i := range q.fifos {
		addrs := q.fifos[i].addrs
		for pos, a := range addrs[:min(window, len(addrs))] {
			if a == b {
				return i, pos
			}
		}
	}
	return -1, -1
}
