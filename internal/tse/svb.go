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
//
// An owner may also attach a stamp to the slot Insert returned (the timing
// model's arrival cycle). A new entry's stamp is 0, the stamp moves with
// its entry when a removal refills the freed slot, and the removal that
// takes the entry keeps it until the next removal (Engine.HitStamp). The
// stamps live in a column beside the slots that the first Stamp creates,
// so an owner that never stamps (a sweep cell, a prefetcher) stores none
// and pays a nil check per insert and per removal.
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
	// stamps is nil until the first Stamp, then holds one stamp per slot.
	// It comes after the fields that every SVB's probes and inserts read.
	stamps []uint64
	taken  uint64 // with stamps: the stamp of the entry the last removal took
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

// take removes key, if held, and returns its entry; with stamps, it keeps
// the entry's stamp in taken.
func (s *SVB) take(key uint64) (svbEntry, bool) {
	i := s.find(key)
	if i < 0 {
		return svbEntry{}, false
	}
	e := s.slots[i]
	last := len(s.slots) - 1
	s.slots[i] = s.slots[last]
	s.slots = s.slots[:last]
	if s.stamps != nil {
		s.taken, s.stamps[i] = s.stamps[i], s.stamps[last]
		s.stamps = s.stamps[:last]
	}
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
// queue that streamed it, and returns the slot that now holds it. The SVB
// must not hold the block already: every owner probes Contains first and
// streams only absent blocks. A new entry's stamp is 0. If the SVB is full
// the least recently used entry is discarded and the block takes its slot.
func (s *SVB) Insert(key uint64, queue int) int {
	s.clock++
	e := svbEntry{key: key, queue: queue, lru: s.clock}
	v := len(s.slots)
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
		v = 0
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
	switch {
	case v < len(s.stamps):
		s.stamps[v] = 0
	case s.stamps != nil:
		s.stamps = append(s.stamps, 0)
	}
	if s.holders != nil {
		(*s.holders)[key] |= s.bit
	}
	s.stats.Inserted++
	return v
}

// Stamp attaches t to the entry in slot i. The slot must come from an
// Insert with no Hit, Invalidate or Flush since, because a removal moves
// the last entry into the freed slot.
func (s *SVB) Stamp(i int, t uint64) {
	if s.stamps == nil {
		s.stamps = make([]uint64, len(s.slots), cap(s.slots))
	}
	s.stamps[i] = t
}

// Key returns the key of the entry in slot i, such as the block a slot of
// Engine.Fetched holds.
func (s *SVB) Key(i int) uint64 { return s.slots[i].key }

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
	s.stamps = s.stamps[:0]
}
