package tse

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"tsm/internal/mem"
)

// refSVB is the test's reference streamed value buffer: a scanned slice in
// insertion order, with the victim and the flush order found by sorting on
// the LRU stamp.
type refSVB struct {
	capacity int
	held     []svbEntry
	clock    uint64
	stats    SVBStats
	discards []svbDiscard
}

type svbDiscard struct {
	block  mem.BlockAddr
	reason DiscardReason
}

func (r *refSVB) index(b mem.BlockAddr) int {
	return slices.IndexFunc(r.held, func(e svbEntry) bool { return e.block == b })
}

func (r *refSVB) remove(i int) svbEntry {
	e := r.held[i]
	r.held = slices.Delete(r.held, i, i+1)
	return e
}

func (r *refSVB) discard(b mem.BlockAddr, reason DiscardReason) {
	r.stats.Discards++
	switch reason {
	case DiscardEvicted:
		r.stats.Evicted++
	case DiscardInvalidated:
		r.stats.Invalidated++
	case DiscardUnused:
		r.stats.Unused++
	}
	r.discards = append(r.discards, svbDiscard{b, reason})
}

func (r *refSVB) insert(b mem.BlockAddr, queue int) {
	r.clock++
	if i := r.index(b); i >= 0 {
		r.held[i].queue, r.held[i].lru = queue, r.clock
		return
	}
	if r.capacity > 0 && len(r.held) >= r.capacity {
		oldest := slices.MinFunc(r.held, func(a, b svbEntry) int { return cmp.Compare(a.lru, b.lru) })
		r.remove(r.index(oldest.block))
		r.discard(oldest.block, DiscardEvicted)
	}
	r.held = append(r.held, svbEntry{block: b, queue: queue, lru: r.clock})
	r.stats.Inserted++
}

func (r *refSVB) hit(b mem.BlockAddr) (int, bool) {
	i := r.index(b)
	if i < 0 {
		return -1, false
	}
	r.stats.Hits++
	return r.remove(i).queue, true
}

func (r *refSVB) invalidate(b mem.BlockAddr) bool {
	i := r.index(b)
	if i < 0 {
		return false
	}
	r.remove(i)
	r.discard(b, DiscardInvalidated)
	return true
}

func (r *refSVB) flush() {
	slices.SortFunc(r.held, func(a, b svbEntry) int { return cmp.Compare(a.lru, b.lru) })
	for _, e := range r.held {
		r.discard(e.block, DiscardUnused)
	}
	r.held = nil
}

// svbOpKinds is the number of distinct operations checkSVB decodes.
const svbOpKinds = 5

// checkSVB decodes ops two bytes at a time — an operation and a block out
// of 40 — and applies each to an SVB of the given capacity and to refSVB.
// After every operation it compares the results, Stats, Len, the discard
// callbacks so far, and the SVB's bit in a holder mask against the
// reference's held set. It returns the first difference.
func checkSVB(capacity int, ops []byte) error {
	const bit = 1 << 5
	s := NewSVB(capacity)
	s.holders, s.bit = make(map[mem.BlockAddr]uint64), bit
	var got []svbDiscard
	s.SetDiscardHandler(func(b mem.BlockAddr, reason DiscardReason) {
		got = append(got, svbDiscard{b, reason})
	})
	ref := &refSVB{capacity: capacity}
	for i := 0; i+1 < len(ops); i += 2 {
		b := mem.BlockAddr(ops[i+1]%40) * 64
		var op string
		switch ops[i] % svbOpKinds {
		case 0:
			op = fmt.Sprintf("Insert(%#x, %d)", b, i)
			s.Insert(b, i)
			ref.insert(b, i)
		case 1:
			op = fmt.Sprintf("Hit(%#x)", b)
			q, ok := s.Hit(b)
			wq, wok := ref.hit(b)
			if q != wq || ok != wok {
				return fmt.Errorf("op %d %s = %d,%v, want %d,%v", i/2, op, q, ok, wq, wok)
			}
		case 2:
			op = fmt.Sprintf("Invalidate(%#x)", b)
			if ok, want := s.Invalidate(b), ref.invalidate(b); ok != want {
				return fmt.Errorf("op %d %s = %v, want %v", i/2, op, ok, want)
			}
		case 3:
			op = fmt.Sprintf("Contains(%#x)", b)
			if ok, want := s.Contains(b), ref.index(b) >= 0; ok != want {
				return fmt.Errorf("op %d %s = %v, want %v", i/2, op, ok, want)
			}
		case 4:
			op = "Flush()"
			s.Flush()
			ref.flush()
		}
		if s.Stats() != ref.stats || s.Len() != len(ref.held) {
			return fmt.Errorf("op %d %s: stats %+v len %d, want %+v len %d", i/2, op, s.Stats(), s.Len(), ref.stats, len(ref.held))
		}
		if !slices.Equal(got, ref.discards) {
			return fmt.Errorf("op %d %s: discards %v, want %v", i/2, op, got, ref.discards)
		}
		want := make(map[mem.BlockAddr]uint64, len(ref.held))
		for _, e := range ref.held {
			want[e.block] = bit
		}
		if !maps.Equal(s.holders, want) {
			return fmt.Errorf("op %d %s: holder mask %v, want %v", i/2, op, s.holders, want)
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
