package tse

import (
	"tsm/internal/mem"
)

// DiscardReason classifies why a streamed block left the SVB without being
// used.
type DiscardReason uint8

const (
	// DiscardEvicted means the block was replaced by a newer streamed
	// block (SVB capacity pressure).
	DiscardEvicted DiscardReason = iota
	// DiscardInvalidated means a write to the block (by any node)
	// invalidated the clean streamed copy.
	DiscardInvalidated
	// DiscardUnused means the block was still sitting unused in the SVB
	// when the measurement ended or its queue was torn down.
	DiscardUnused
)

// SVBStats accumulates streamed value buffer statistics.
type SVBStats struct {
	Inserted    uint64
	Hits        uint64
	Discards    uint64
	Evicted     uint64
	Invalidated uint64
	Unused      uint64
}

// svbEntry is one streamed block held by the SVB.
type svbEntry struct {
	block mem.BlockAddr
	queue int // id of the stream queue that streamed it (-1 if unknown)
	lru   uint64
}

// SVB is the Streamed Value Buffer: a small fully-associative buffer holding
// clean streamed cache blocks, probed in parallel with the L2 on every L1
// miss (Section 3.3). Entries are invalidated on any write to the block and
// replaced with an LRU policy.
type SVB struct {
	capacity int // 0 = unlimited
	entries  map[mem.BlockAddr]*svbEntry
	clock    uint64
	stats    SVBStats
	// onDiscard, if non-nil, is invoked whenever a block leaves the SVB
	// without having been hit.
	onDiscard func(b mem.BlockAddr, reason DiscardReason)
}

// NewSVB returns an SVB with the given capacity in blocks (0 = unlimited).
func NewSVB(capacity int) *SVB {
	return &SVB{capacity: capacity, entries: make(map[mem.BlockAddr]*svbEntry)}
}

// SetDiscardHandler registers a callback invoked on every discard.
func (s *SVB) SetDiscardHandler(fn func(b mem.BlockAddr, reason DiscardReason)) {
	s.onDiscard = fn
}

// Capacity returns the configured capacity (0 = unlimited).
func (s *SVB) Capacity() int { return s.capacity }

// Len returns the number of blocks currently held.
func (s *SVB) Len() int { return len(s.entries) }

// Stats returns a copy of the statistics.
func (s *SVB) Stats() SVBStats { return s.stats }

// Contains reports whether the SVB holds the block, without changing state.
func (s *SVB) Contains(b mem.BlockAddr) bool {
	_, ok := s.entries[b]
	return ok
}

func (s *SVB) discard(e *svbEntry, reason DiscardReason) {
	s.stats.Discards++
	switch reason {
	case DiscardEvicted:
		s.stats.Evicted++
	case DiscardInvalidated:
		s.stats.Invalidated++
	case DiscardUnused:
		s.stats.Unused++
	}
	if s.onDiscard != nil {
		s.onDiscard(e.block, reason)
	}
}

// Insert places a streamed block into the SVB, associated with the stream
// queue that streamed it. If the block is already present the entry is
// refreshed. If the SVB is full the least recently used entry is discarded.
func (s *SVB) Insert(b mem.BlockAddr, queue int) {
	s.clock++
	if e, ok := s.entries[b]; ok {
		e.queue = queue
		e.lru = s.clock
		return
	}
	if s.capacity > 0 && len(s.entries) >= s.capacity {
		s.evictOne()
	}
	s.entries[b] = &svbEntry{block: b, queue: queue, lru: s.clock}
	s.stats.Inserted++
}

func (s *SVB) evictOne() {
	var victim *svbEntry
	for _, e := range s.entries {
		if victim == nil || e.lru < victim.lru {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(s.entries, victim.block)
	s.discard(victim, DiscardEvicted)
}

// Hit probes the SVB for a block on a processor access. On a hit the entry
// is removed (the block moves to the L1 data cache) and the id of the stream
// queue that streamed it is returned so the engine can retrieve a subsequent
// block from that queue.
func (s *SVB) Hit(b mem.BlockAddr) (queue int, ok bool) {
	e, present := s.entries[b]
	if !present {
		return -1, false
	}
	delete(s.entries, b)
	s.stats.Hits++
	return e.queue, true
}

// Invalidate removes a block on a write by any processor; the streamed copy
// is clean so it is simply dropped (and counted as a discard).
func (s *SVB) Invalidate(b mem.BlockAddr) bool {
	e, ok := s.entries[b]
	if !ok {
		return false
	}
	delete(s.entries, b)
	s.discard(e, DiscardInvalidated)
	return true
}

// Flush discards every remaining entry as unused. Called at the end of a
// measurement so that blocks streamed but never consumed count against
// accuracy.
func (s *SVB) Flush() {
	for b, e := range s.entries {
		delete(s.entries, b)
		s.discard(e, DiscardUnused)
	}
}
