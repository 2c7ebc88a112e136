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
	addrs  []BlockID
	buf    []BlockID
}

// reset empties the FIFO for a new source, keeping its buffer.
func (f *streamFIFO) reset(src streamSource, capacity int) {
	if f.buf == nil {
		f.buf = make([]BlockID, 0, capacity)
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

func (f *streamFIFO) head() (BlockID, bool) {
	if len(f.addrs) == 0 {
		return 0, false
	}
	return f.addrs[0], true
}

// pop removes the head, which the caller has checked is there.
func (f *streamFIFO) pop(counts fifoCounts) {
	counts[f.addrs[0]]--
	f.addrs = f.addrs[1:]
}

// contains reports whether the FIFO holds the block anywhere (used to let
// the SVB window tolerate small reorderings: a miss that matches a block a
// few entries down the FIFO still identifies this stream).
func (f *streamFIFO) contains(b BlockID) int {
	for i, a := range f.addrs {
		if a == b {
			return i
		}
	}
	return -1
}

// dropThrough removes entries up to and including index i, an index of an
// entry.
func (f *streamFIFO) dropThrough(i int, counts fifoCounts) {
	counts.remove(f.addrs[:i+1])
	f.addrs = f.addrs[i+1:]
}

// fifoCounts holds, per BlockID, how many entries of an engine's active
// stream queues' FIFOs name the block. Every address a CMOB read appends to
// such a FIFO adds one and every entry that leaves it subtracts one, so a
// zero count proves that no FIFO, and hence no lookahead window, holds the
// block. A count never exceeds the entries one engine's FIFOs can hold,
// StreamQueues × ComparedStreams × the FIFO capacity, which Config.Validate
// keeps within a uint16.
type fifoCounts []uint16

// add counts addrs, growing the counts to cover a new id.
func (c *fifoCounts) add(addrs []BlockID) {
	counts := *c
	for _, b := range addrs {
		if int(b) >= len(counts) {
			counts = append(counts, make(fifoCounts, int(b)+1-len(counts))...)
		}
		counts[b]++
	}
	*c = counts
}

// remove uncounts addrs, which add counted.
func (c fifoCounts) remove(addrs []BlockID) {
	for _, b := range addrs {
		c[b]--
	}
}

// holds reports whether some FIFO entry names b.
func (c fifoCounts) holds(b BlockID) bool { return int(b) < len(c) && c[b] != 0 }

// streamQueue groups the FIFOs fetched for one stream head and tracks the
// comparison/stall state of Section 3.3.
type streamQueue struct {
	// id is generation*StreamQueues + slot, where slot is the queue's
	// index in its engine and generation counts the streams an LRU
	// replacement has retired from that slot, so an id is unique within
	// the engine and names its slot.
	id int
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
func (q *streamQueue) headsAgree() (BlockID, bool, bool) {
	var agreed BlockID
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
func (q *streamQueue) popAgreed(b BlockID, counts fifoCounts) {
	for i := range q.fifos {
		if h, ok := q.fifos[i].head(); ok && h == b {
			q.fifos[i].pop(counts)
		}
	}
}

// selectFIFO keeps only the FIFO at index keep, discarding the others'
// contents (the reselection step after a stall, Section 3.3). It swaps the
// kept FIFO into the first slot, so every slot keeps a buffer of its own.
func (q *streamQueue) selectFIFO(keep int, counts fifoCounts) {
	for i := range q.fifos {
		if i != keep {
			counts.remove(q.fifos[i].addrs)
		}
	}
	q.fifos[0], q.fifos[keep] = q.fifos[keep], q.fifos[0]
	q.fifos = q.fifos[:1]
}

// matchStalledHead checks whether a processor miss to b matches one of the
// stalled queue's FIFO heads (or an entry within the SVB-lookahead window of
// a FIFO). It returns the index of the matching FIFO and the position of the
// match, or (-1, -1). Only the first window entries of each FIFO are
// scanned: the first match there is the first match in the whole FIFO
// whenever that one lies inside the window.
func (q *streamQueue) matchStalledHead(b BlockID, window int) (int, int) {
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
