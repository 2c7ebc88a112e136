// Package analysis implements the trace analyses of Section 5: the temporal
// correlation opportunity study (Figure 6), the coverage/discard evaluation
// harness used for TSE and the baseline prefetchers (Figures 7–10 and 12),
// and the stream-length and bandwidth summaries (Figures 11 and 13).
package analysis

import (
	"tsm/internal/mem"
	"tsm/internal/trace"
)

// MaxCorrelationDistance is the largest reordering window the opportunity
// study considers (Figure 6 plots ±1 through ±16).
const MaxCorrelationDistance = 16

// referenceStreams is the number of recently-followed orders each node keeps
// as candidate references while measuring correlation distance. The paper
// measures the distance "along the most recent sharer's order between
// consecutive processor consumptions"; keeping a small set of recent
// reference orders (rather than exactly one) makes the measurement robust to
// uncorrelated misses interleaved between correlated ones — precisely the
// small deviations the SVB window tolerates in the hardware (Section 3.3).
const referenceStreams = 4

// CorrelationResult reports, for each temporal correlation distance d, the
// fraction of consumptions whose distance from the node's current position
// in a recently-followed sharer's order is within ±d.
type CorrelationResult struct {
	// Total is the number of consumptions analysed.
	Total uint64
	// WithinDistance[d] is the count of consumptions with |distance| <= d
	// (index 0 unused; valid indices 1..MaxCorrelationDistance).
	WithinDistance [MaxCorrelationDistance + 1]uint64
}

// CumulativeFraction returns the fraction of consumptions with correlation
// distance within ±d.
func (r CorrelationResult) CumulativeFraction(d int) float64 {
	if r.Total == 0 {
		return 0
	}
	if d < 1 {
		return 0
	}
	if d > MaxCorrelationDistance {
		d = MaxCorrelationDistance
	}
	return float64(r.WithinDistance[d]) / float64(r.Total)
}

// occurrence locates one appearance of a block in some node's consumption
// order.
type occurrence struct {
	node mem.NodeID
	pos  int
}

// reference is one candidate order a node may currently be following: a
// position within some (possibly its own, earlier) node's consumption order.
type reference struct {
	node mem.NodeID
	pos  int
	lru  uint64
}

// CorrelationDistance performs the Figure 6 opportunity analysis on a
// consumption trace. For every consumption it measures how far along a
// recently-followed sharer's order the processor has moved; distances within
// ±d for small d indicate the consumption would be captured by temporal
// streaming with a lookahead of roughly d.
func CorrelationDistance(tr *trace.Trace, nodes int) CorrelationResult {
	var res CorrelationResult

	// Per-node consumption orders, grown as the trace is scanned.
	orders := make([][]mem.BlockAddr, nodes)
	// Most recent occurrences of each block in any node's order (newest
	// first, bounded).
	const keepOccurrences = 4
	occ := make(map[mem.BlockAddr][]occurrence)
	// Per-node set of candidate reference orders currently being followed.
	refs := make([][]reference, nodes)
	var clock uint64

	for _, e := range tr.Events {
		if e.Kind != trace.KindConsumption {
			continue
		}
		if int(e.Node) < 0 || int(e.Node) >= nodes {
			continue
		}
		n := e.Node
		res.Total++
		clock++

		// Try to find this block near one of the node's current reference
		// positions; the best (smallest) distance wins.
		best := 0
		bestIdx := -1
		for i := range refs[n] {
			r := &refs[n][i]
			order := orders[r.node]
			for d := 1; d <= MaxCorrelationDistance; d++ {
				if best != 0 && d >= best {
					break
				}
				if r.pos+d < len(order) && order[r.pos+d] == e.Block {
					best, bestIdx = d, i
					break
				}
				if r.pos-d >= 0 && order[r.pos-d] == e.Block {
					best, bestIdx = d, i
					break
				}
			}
		}
		if bestIdx >= 0 {
			for d := best; d <= MaxCorrelationDistance; d++ {
				res.WithinDistance[d]++
			}
			// Advance the matched reference to the block's position so the
			// next consumption is measured from there.
			r := &refs[n][bestIdx]
			if r.pos+best < len(orders[r.node]) && orders[r.node][r.pos+best] == e.Block {
				r.pos += best
			} else {
				r.pos -= best
			}
			r.lru = clock
		} else {
			// Not following any current reference: start (or replace) a
			// reference at the most recent prior occurrence of this block in
			// any node's order — the "most recent sharer".
			if prior := occ[e.Block]; len(prior) > 0 {
				newRef := reference{node: prior[0].node, pos: prior[0].pos, lru: clock}
				if len(refs[n]) < referenceStreams {
					refs[n] = append(refs[n], newRef)
				} else {
					victim := 0
					for i := 1; i < len(refs[n]); i++ {
						if refs[n][i].lru < refs[n][victim].lru {
							victim = i
						}
					}
					refs[n][victim] = newRef
				}
			}
		}

		// Record this consumption in the node's own order and in the
		// occurrence index.
		pos := len(orders[n])
		orders[n] = append(orders[n], e.Block)
		list := occ[e.Block]
		list = append([]occurrence{{node: n, pos: pos}}, list...)
		if len(list) > keepOccurrences {
			list = list[:keepOccurrences]
		}
		occ[e.Block] = list
	}
	return res
}
