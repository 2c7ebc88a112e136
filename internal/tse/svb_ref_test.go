package tse

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSVB is the test's reference streamed value buffer: a scanned slice in
// insertion order, with the victim found by the minimum LRU stamp. Each
// entry keeps the owner's stamp of its insert, 0 if unstamped.
type refSVB struct {
	capacity int
	held     []refEntry
	clock    uint64
	stats    SVBStats
}

// refEntry is a reference entry with its stamp.
type refEntry struct {
	svbEntry
	stamp uint64
}

func (r *refSVB) index(b uint64) int {
	return slices.IndexFunc(r.held, func(e refEntry) bool { return e.key == b })
}

func (r *refSVB) remove(i int) refEntry {
	e := r.held[i]
	r.held = slices.Delete(r.held, i, i+1)
	return e
}

// discard counts one discard under the given per-reason counter.
func (r *refSVB) discard(reason *uint64) {
	r.stats.Discards++
	*reason++
}

func (r *refSVB) insert(b uint64, queue int, stamp uint64) {
	r.clock++
	if r.capacity > 0 && len(r.held) >= r.capacity {
		oldest := slices.MinFunc(r.held, func(a, b refEntry) int { return cmp.Compare(a.lru, b.lru) })
		r.remove(r.index(oldest.key))
		r.discard(&r.stats.Evicted)
	}
	r.held = append(r.held, refEntry{svbEntry{key: b, queue: queue, lru: r.clock}, stamp})
	r.stats.Inserted++
}

func (r *refSVB) hit(b uint64) (int, uint64, bool) {
	i := r.index(b)
	if i < 0 {
		return -1, 0, false
	}
	r.stats.Hits++
	e := r.remove(i)
	return e.queue, e.stamp, true
}

func (r *refSVB) invalidate(b uint64) bool {
	i := r.index(b)
	if i < 0 {
		return false
	}
	r.remove(i)
	r.discard(&r.stats.Invalidated)
	return true
}

func (r *refSVB) flush() {
	for range r.held {
		r.discard(&r.stats.Unused)
	}
	r.held = nil
}

// svbOpKinds is the number of distinct operations checkSVB decodes.
const svbOpKinds = 5

// svbKeys bounds the keys checkSVB draws: 40 keys spaced three apart, so
// an unlimited SVB's position table has gaps.
const svbKeys = 40 * 3

// checkSVB decodes ops two bytes at a time — an operation and a key out of
// 40 — and applies each to two SVBs of the given capacity and to refSVB.
// An insert of a key the reference holds is skipped, as every owner probes
// Contains first and inserts only absent blocks. An insert is stamped
// through the slot Insert returned, which must hold the key, on every other
// value of the operation byte, and left unstamped otherwise. The SVBs are
// one SVB standalone, as the prefetchers use it, and one with a bit in a
// holder-mask slice, as a System's engines use it. After every operation it
// compares each SVB's results (a hit's stamp included), per-reason Stats
// and Len with the reference, and each SVB's Contains of every key, the
// stamp of every held key, the holder mask of every key and, for an
// unlimited SVB, the position table against the reference's held set; so
// an eviction's victim is checked when it happens. It returns the first
// difference.
func checkSVB(capacity int, ops []byte) error {
	const bit = 1 << 5
	holders := make([]uint64, svbKeys)
	plain, owned := NewSVB(capacity), NewSVB(capacity)
	owned.holders, owned.bit = &holders, bit
	svbs := []*SVB{plain, owned}
	ref := &refSVB{capacity: capacity}
	for i := 0; i+1 < len(ops); i += 2 {
		b := uint64(ops[i+1]%40) * 3
		var op string
		switch ops[i] % svbOpKinds {
		case 0:
			if ref.index(b) >= 0 {
				op = fmt.Sprintf("Insert(%#x) skipped: held", b)
				break
			}
			var stamp uint64
			if ops[i]/svbOpKinds%2 == 1 {
				stamp = uint64(i + 1)
			}
			op = fmt.Sprintf("Insert(%#x, %d) stamped %d", b, i, stamp)
			for j, s := range svbs {
				slot := s.Insert(b, i)
				if k := s.Key(slot); k != b {
					return fmt.Errorf("svb %d op %d %s: slot %d holds %#x", j, i/2, op, slot, k)
				}
				if stamp != 0 {
					s.Stamp(slot, stamp)
				}
			}
			ref.insert(b, i, stamp)
		case 1:
			op = fmt.Sprintf("Hit(%#x)", b)
			wq, ws, wok := ref.hit(b)
			for j, s := range svbs {
				if q, ok := s.Hit(b); q != wq || ok != wok || ok && s.taken != ws {
					return fmt.Errorf("svb %d op %d %s = %d,%v stamp %d, want %d,%v stamp %d", j, i/2, op, q, ok, s.taken, wq, wok, ws)
				}
			}
		case 2:
			op = fmt.Sprintf("Invalidate(%#x)", b)
			want := ref.invalidate(b)
			for j, s := range svbs {
				if ok := s.Invalidate(b); ok != want {
					return fmt.Errorf("svb %d op %d %s = %v, want %v", j, i/2, op, ok, want)
				}
			}
		case 3:
			op = fmt.Sprintf("Contains(%#x)", b)
			want := ref.index(b) >= 0
			for j, s := range svbs {
				if ok := s.Contains(b); ok != want {
					return fmt.Errorf("svb %d op %d %s = %v, want %v", j, i/2, op, ok, want)
				}
			}
		case 4:
			op = "Flush()"
			for _, s := range svbs {
				s.Flush()
			}
			ref.flush()
		}
		want := make([]uint64, svbKeys)
		for _, e := range ref.held {
			want[e.key] = bit
		}
		for j, s := range svbs {
			if s.Stats() != ref.stats || s.Len() != len(ref.held) {
				return fmt.Errorf("svb %d op %d %s: stats %+v len %d, want %+v len %d", j, i/2, op, s.Stats(), s.Len(), ref.stats, len(ref.held))
			}
			for k := range want {
				if held := want[k] != 0; s.Contains(uint64(k)) != held {
					return fmt.Errorf("svb %d op %d %s: Contains(%#x) = %v, want %v", j, i/2, op, k, !held, held)
				}
			}
			for _, e := range ref.held {
				if slot := s.find(e.key); slot < 0 || stampAt(s, slot) != e.stamp {
					return fmt.Errorf("svb %d op %d %s: %#x in slot %d, want stamp %d", j, i/2, op, e.key, slot, e.stamp)
				}
			}
			if s.stamps != nil && len(s.stamps) != len(s.slots) {
				return fmt.Errorf("svb %d op %d %s: %d stamps for %d slots", j, i/2, op, len(s.stamps), len(s.slots))
			}
			if err := checkPositions(s); err != nil {
				return fmt.Errorf("svb %d op %d %s: %v", j, i/2, op, err)
			}
		}
		if !slices.Equal(holders, want) {
			return fmt.Errorf("op %d %s: holder masks differ from the held set %v", i/2, op, ref.held)
		}
	}
	return nil
}

// stampAt returns the stamp of slot i, 0 while the SVB keeps no stamps.
func stampAt(s *SVB, i int) uint64 {
	if s.stamps == nil {
		return 0
	}
	return s.stamps[i]
}

// checkPositions reports whether an unlimited SVB's position table names
// exactly the slot of each held key.
func checkPositions(s *SVB) error {
	if s.capacity > 0 {
		if s.pos != nil {
			return fmt.Errorf("bounded SVB has a position table")
		}
		return nil
	}
	for k, p := range s.pos {
		switch {
		case p < 0 || int(p) > len(s.slots):
			return fmt.Errorf("position of %#x is %d, %d slots", k, p, len(s.slots))
		case p > 0 && s.slots[p-1].key != uint64(k):
			return fmt.Errorf("position of %#x names slot %d, which holds %#x", k, p-1, s.slots[p-1].key)
		}
	}
	for i, e := range s.slots {
		if e.key >= uint64(len(s.pos)) || s.pos[e.key] != int32(i+1) {
			return fmt.Errorf("slot %d holds %#x, which has no position", i, e.key)
		}
	}
	return nil
}

// svbRefCapacities are the capacities the reference check covers: unlimited,
// the degenerate one- and two-entry buffers, and the paper's 32 entries.
var svbRefCapacities = []int{0, 1, 2, 32}

func TestSVBMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range svbRefCapacities {
		for seq := 0; seq < 50; seq++ {
			ops := make([]byte, 2*600)
			rng.Read(ops)
			// Flush rarely, so the buffer fills and evicts between flushes.
			for i := 0; i < len(ops); i += 2 {
				if ops[i]%svbOpKinds == 4 && rng.Intn(20) != 0 {
					ops[i] = 0
				}
			}
			if err := checkSVB(capacity, ops); err != nil {
				t.Fatalf("capacity %d, sequence %d: %v", capacity, seq, err)
			}
		}
	}
}

// FuzzSVB checks SVB against refSVB over fuzzed operation sequences; the
// first byte picks the capacity.
func FuzzSVB(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 0, 3, 1, 1, 2, 2, 4, 0})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 3, 1, 1, 2, 0, 3, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := svbRefCapacities[int(data[0])%len(svbRefCapacities)]
		if err := checkSVB(capacity, data[1:]); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	})
}
