package tse

// SVBStats accumulates streamed value buffer statistics. Every block that
// leaves the SVB without being hit counts as one discard, under one of three
// reasons.
type SVBStats struct {
	Inserted uint64
	Hits     uint64
	Discards uint64
	// Evicted counts blocks replaced by a newer streamed block (SVB
	// capacity pressure).
	Evicted uint64
	// Invalidated counts clean streamed copies dropped on a write to the
	// block by any node.
	Invalidated uint64
	// Unused counts blocks still sitting unused in the SVB when the
	// measurement ended.
	Unused uint64
}

// svbEntry is one streamed block held by the SVB.
type svbEntry struct {
	key   uint64
	queue int // id of the stream queue that streamed it (-1 if unknown)
	lru   uint64
}

// SVB is the Streamed Value Buffer: a small fully-associative buffer holding
// clean streamed cache blocks, probed in parallel with the L2 on every L1
// miss (Section 3.3). Entries are invalidated on any write to the block and
// replaced with an LRU policy.
//
// The SVB names a block by a key chosen by its owner: a System's engines
// pass the block's BlockID, the baseline prefetchers the block address.
// It holds its entries as values in one slice, like the hardware's entry
// array, and every insert stamps a strictly increasing clock, so the LRU
// victim is unique. A bounded SVB has at most Capacity slots; lookups and
// the victim are linear scans. An unlimited SVB also keeps a position table
// indexed by key, so its keys must be dense ids: the table is as long as
// the largest key held.
type SVB struct {
	capacity int        // 0 = unlimited
	slots    []svbEntry // the held entries, in no order
	pos      []int32    // unlimited: 1 + the slot holding each key, 0 if absent
	clock    uint64
	stats    SVBStats
	// holders, if non-nil, is the System's per-block mask of the SVBs
	// holding each block, indexed by key; this SVB sets and clears bit in
	// it whenever a block enters or leaves, so a write visits only the
	// holders and a probe of a block this SVB does not hold reads one bit.
	holders *[]uint64
	bit     uint64
}

// NewSVB returns an SVB with the given capacity in blocks (0 = unlimited).
func NewSVB(capacity int) *SVB {
	s := &SVB{capacity: capacity}
	if capacity > 0 {
		s.slots = make([]svbEntry, 0, capacity)
	}
	return s
}

// Capacity returns the configured capacity (0 = unlimited).
func (s *SVB) Capacity() int { return s.capacity }

// Len returns the number of blocks currently held.
func (s *SVB) Len() int { return len(s.slots) }

// Stats returns a copy of the statistics.
func (s *SVB) Stats() SVBStats { return s.stats }

// held reports whether this SVB's bit is set in key's holder mask.
func (s *SVB) held(key uint64) bool { return (*s.holders)[key]&s.bit != 0 }

// find returns the slot index holding key, or -1.
func (s *SVB) find(key uint64) int {
	if s.holders != nil && !s.held(key) {
		return -1
	}
	if s.capacity == 0 {
		if key < uint64(len(s.pos)) {
			return int(s.pos[key]) - 1
		}
		return -1
	}
	for i := range s.slots {
		if s.slots[i].key == key {
			return i
		}
	}
	return -1
}

// Contains reports whether the SVB holds the block, without changing state.
func (s *SVB) Contains(key uint64) bool {
	if s.holders != nil {
		return s.held(key)
	}
	return s.find(key) >= 0
}

// take removes key, if held, and returns its entry.
func (s *SVB) take(key uint64) (svbEntry, bool) {
	i := s.find(key)
	if i < 0 {
		return svbEntry{}, false
	}
	e := s.slots[i]
	last := len(s.slots) - 1
	s.slots[i] = s.slots[last]
	s.slots = s.slots[:last]
	if s.capacity == 0 {
		if i < last {
			s.pos[s.slots[i].key] = int32(i + 1)
		}
		s.pos[key] = 0
	}
	s.release(key)
	return e, true
}

// release clears this SVB's bit in the block's holder mask.
func (s *SVB) release(key uint64) {
	if s.holders != nil {
		(*s.holders)[key] &^= s.bit
	}
}

// Insert places a streamed block into the SVB, associated with the stream
// queue that streamed it. If the block is already present the entry is
// refreshed. If the SVB is full the least recently used entry is discarded.
func (s *SVB) Insert(key uint64, queue int) {
	s.clock++
	e := svbEntry{key: key, queue: queue, lru: s.clock}
	if i := s.find(key); i >= 0 {
		s.slots[i] = e
		return
	}
	switch {
	case s.capacity == 0:
		if key >= uint64(len(s.pos)) {
			s.pos = append(s.pos, make([]int32, key+1-uint64(len(s.pos)))...)
		}
		s.slots = append(s.slots, e)
		s.pos[key] = int32(len(s.slots))
	case len(s.slots) < s.capacity:
		s.slots = append(s.slots, e)
	default:
		v := 0
		for i := 1; i < len(s.slots); i++ {
			if s.slots[i].lru < s.slots[v].lru {
				v = i
			}
		}
		victim := s.slots[v].key
		s.slots[v] = e
		s.release(victim)
		s.stats.Discards++
		s.stats.Evicted++
	}
	if s.holders != nil {
		(*s.holders)[key] |= s.bit
	}
	s.stats.Inserted++
}

// Hit probes the SVB for a block on a processor access. On a hit the entry
// is removed (the block moves to the L1 data cache) and the id of the stream
// queue that streamed it is returned so the engine can retrieve a subsequent
// block from that queue.
func (s *SVB) Hit(key uint64) (queue int, ok bool) {
	e, ok := s.take(key)
	if !ok {
		return -1, false
	}
	s.stats.Hits++
	return e.queue, true
}

// Invalidate removes a block on a write by any processor; the streamed copy
// is clean so it is simply dropped (and counted as a discard).
func (s *SVB) Invalidate(key uint64) bool {
	if _, ok := s.take(key); !ok {
		return false
	}
	s.stats.Discards++
	s.stats.Invalidated++
	return true
}

// Flush discards every remaining entry as unused. Called at the end of a
// measurement so that blocks streamed but never consumed count against
// accuracy.
func (s *SVB) Flush() {
	for _, e := range s.slots {
		if s.capacity == 0 {
			s.pos[e.key] = 0
		}
		s.release(e.key)
	}
	n := uint64(len(s.slots))
	s.stats.Discards += n
	s.stats.Unused += n
	s.slots = s.slots[:0]
}
