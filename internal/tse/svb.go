package tse

import (
	"cmp"
	"slices"

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
//
// A bounded SVB holds its entries as values in one slice of at most
// Capacity slots, like the hardware's fixed entry array: lookups and the
// LRU victim are linear scans, and every insert stamps a strictly
// increasing clock, so the victim is unique. Only an unlimited SVB keys its
// entries by block in a map.
type SVB struct {
	capacity int                        // 0 = unlimited
	slots    []svbEntry                 // bounded: the held entries, in no order
	entries  map[mem.BlockAddr]svbEntry // unlimited: the held entries
	clock    uint64
	stats    SVBStats
	// onDiscard, if non-nil, is invoked whenever a block leaves the SVB
	// without having been hit.
	onDiscard func(b mem.BlockAddr, reason DiscardReason)
	// holders, if non-nil, is the System's per-block mask of the SVBs
	// holding each block; this SVB sets and clears bit in it whenever a
	// block enters or leaves, so a write visits only the holders.
	holders map[mem.BlockAddr]uint64
	bit     uint64
}

// NewSVB returns an SVB with the given capacity in blocks (0 = unlimited).
func NewSVB(capacity int) *SVB {
	s := &SVB{capacity: capacity}
	if capacity > 0 {
		s.slots = make([]svbEntry, 0, capacity)
	} else {
		s.entries = make(map[mem.BlockAddr]svbEntry)
	}
	return s
}

// SetDiscardHandler registers a callback invoked on every discard.
func (s *SVB) SetDiscardHandler(fn func(b mem.BlockAddr, reason DiscardReason)) {
	s.onDiscard = fn
}

// Capacity returns the configured capacity (0 = unlimited).
func (s *SVB) Capacity() int { return s.capacity }

// Len returns the number of blocks currently held.
func (s *SVB) Len() int {
	if s.capacity > 0 {
		return len(s.slots)
	}
	return len(s.entries)
}

// Stats returns a copy of the statistics.
func (s *SVB) Stats() SVBStats { return s.stats }

// find returns the slot index holding b in a bounded SVB, or -1.
func (s *SVB) find(b mem.BlockAddr) int {
	for i := range s.slots {
		if s.slots[i].block == b {
			return i
		}
	}
	return -1
}

// Contains reports whether the SVB holds the block, without changing state.
func (s *SVB) Contains(b mem.BlockAddr) bool {
	if s.capacity > 0 {
		return s.find(b) >= 0
	}
	_, ok := s.entries[b]
	return ok
}

// take removes b, if held, and returns its entry.
func (s *SVB) take(b mem.BlockAddr) (svbEntry, bool) {
	var e svbEntry
	if s.capacity > 0 {
		i := s.find(b)
		if i < 0 {
			return e, false
		}
		e = s.slots[i]
		last := len(s.slots) - 1
		s.slots[i] = s.slots[last]
		s.slots = s.slots[:last]
	} else {
		var ok bool
		if e, ok = s.entries[b]; !ok {
			return e, false
		}
		delete(s.entries, b)
	}
	s.release(b)
	return e, true
}

// release clears this SVB's bit in the block's holder mask.
func (s *SVB) release(b mem.BlockAddr) {
	if s.holders == nil {
		return
	}
	if m := s.holders[b] &^ s.bit; m != 0 {
		s.holders[b] = m
	} else {
		delete(s.holders, b)
	}
}

func (s *SVB) discard(b mem.BlockAddr, reason DiscardReason) {
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
		s.onDiscard(b, reason)
	}
}

// Insert places a streamed block into the SVB, associated with the stream
// queue that streamed it. If the block is already present the entry is
// refreshed. If the SVB is full the least recently used entry is discarded.
func (s *SVB) Insert(b mem.BlockAddr, queue int) {
	s.clock++
	e := svbEntry{block: b, queue: queue, lru: s.clock}
	if s.capacity > 0 {
		if i := s.find(b); i >= 0 {
			s.slots[i] = e
			return
		}
		if len(s.slots) < s.capacity {
			s.slots = append(s.slots, e)
		} else {
			v := 0
			for i := 1; i < len(s.slots); i++ {
				if s.slots[i].lru < s.slots[v].lru {
					v = i
				}
			}
			victim := s.slots[v].block
			s.slots[v] = e
			s.release(victim)
			s.discard(victim, DiscardEvicted)
		}
	} else {
		_, held := s.entries[b]
		s.entries[b] = e
		if held {
			return
		}
	}
	if s.holders != nil {
		s.holders[b] |= s.bit
	}
	s.stats.Inserted++
}

// Hit probes the SVB for a block on a processor access. On a hit the entry
// is removed (the block moves to the L1 data cache) and the id of the stream
// queue that streamed it is returned so the engine can retrieve a subsequent
// block from that queue.
func (s *SVB) Hit(b mem.BlockAddr) (queue int, ok bool) {
	e, ok := s.take(b)
	if !ok {
		return -1, false
	}
	s.stats.Hits++
	return e.queue, true
}

// Invalidate removes a block on a write by any processor; the streamed copy
// is clean so it is simply dropped (and counted as a discard).
func (s *SVB) Invalidate(b mem.BlockAddr) bool {
	if _, ok := s.take(b); !ok {
		return false
	}
	s.discard(b, DiscardInvalidated)
	return true
}

// Flush discards every remaining entry as unused, oldest first. Called at
// the end of a measurement so that blocks streamed but never consumed count
// against accuracy.
func (s *SVB) Flush() {
	held := s.slots
	if s.capacity == 0 {
		held = make([]svbEntry, 0, len(s.entries))
		for _, e := range s.entries {
			held = append(held, e)
		}
		clear(s.entries)
	}
	slices.SortFunc(held, func(a, b svbEntry) int { return cmp.Compare(a.lru, b.lru) })
	s.slots = s.slots[:0]
	for _, e := range held {
		s.release(e.block)
		s.discard(e.block, DiscardUnused)
	}
}
