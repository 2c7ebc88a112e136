package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// The pieces here let the generators express their phase structure in
// Emit without materializing per-node slices:
//
//   - cursor: one node's access sequence within a phase, as a known length
//     plus a pull function holding O(1) state;
//   - interleaveEmit: the bounded deterministic k-way interleaver that merges
//     per-node cursors into the global order, drawing its shuffles from the
//     generator's rng — the draws the byte-identical goldens pin;
//   - emitter: a yield wrapper that latches the first error so straight-line
//     generators can emit without an error check at every call site.

// cursor is one node's access sequence for a single interleaved phase: n is
// the exact number of accesses and next returns them in order (it is called
// exactly n times). Knowing n up front fixes the number of interleave rounds
// — and therefore the rng draws — without buffering the sequence.
type cursor struct {
	n    int
	next func() mem.Access
}

// band returns partition p's index range [lo, hi) when n items are split
// across the nodes in ceil-division bands of size per. For trailing
// partitions lo may reach or exceed hi (an empty band); rangeCursor and
// plain lo..hi loops both treat that as zero items.
func band(p, per, n int) (lo, hi int) {
	lo, hi = p*per, (p+1)*per
	if hi > n {
		hi = n
	}
	return lo, hi
}

// indexCursor walks n region indices chosen by index(0..n-1), emitting one
// access per step — the shared shape behind the list-walk phases.
func indexCursor(node mem.NodeID, region, n int, index func(int) int, typ mem.AccessType) cursor {
	i := 0
	return cursor{n: n, next: func() mem.Access {
		a := mem.Access{Node: node, Addr: blockAddr(region, index(i)), Type: typ, Shared: true}
		i++
		return a
	}}
}

// rangeCursor walks the contiguous index range [lo, hi) of a region (empty
// when lo >= hi) — the shared shape behind the owner-update phases.
func rangeCursor(node mem.NodeID, region, lo, hi int, typ mem.AccessType) cursor {
	if lo > hi {
		lo = hi
	}
	return indexCursor(node, region, hi-lo, func(i int) int { return lo + i }, typ)
}

// interleaveEmit merges per-node cursors into a single global order by taking
// chunk consecutive accesses from each node in round-robin fashion,
// approximating the simultaneous progress of the nodes within a phase. The
// node visit order is shuffled each round (when rng is non-nil) so no node is
// always first. It holds only O(nodes) state; a non-nil error from yield
// aborts the merge immediately.
func interleaveEmit(perNode []cursor, chunk int, rng *rand.Rand, yield func(mem.Access) error) error {
	if chunk <= 0 {
		chunk = 8
	}
	total := 0
	for _, c := range perNode {
		if c.n > 0 {
			total += c.n
		}
	}
	idx := make([]int, len(perNode))
	order := make([]int, len(perNode))
	for i := range order {
		order[i] = i
	}
	emitted := 0
	for emitted < total {
		// Shuffle node visit order each round so no node is always first.
		if rng != nil {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		progressed := false
		for _, n := range order {
			c := perNode[n]
			if idx[n] >= c.n {
				continue
			}
			end := idx[n] + chunk
			if end > c.n {
				end = c.n
			}
			for ; idx[n] < end; idx[n]++ {
				if err := yield(c.next()); err != nil {
					return err
				}
				emitted++
			}
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return nil
}

// emitter wraps a yield callback and latches its first error, so generators
// with long straight-line bodies can emit without checking an error at every
// call site and poll failed() at natural boundaries (once per transaction /
// request) instead.
type emitter struct {
	yield func(a mem.Access) error
	err   error
}

// emit forwards one access unless a previous yield already failed.
func (e *emitter) emit(a mem.Access) {
	if e.err == nil {
		e.err = e.yield(a)
	}
}

// failed reports whether a yield error has been latched.
func (e *emitter) failed() bool { return e.err != nil }
