package prefetch

import (
	"tsm/internal/mem"
	"tsm/internal/trace"
)

// GHBIndexMethod selects how the Global History Buffer's index table keys
// its entries.
type GHBIndexMethod int

const (
	// GAC is global address correlation: the index table is keyed by miss
	// address, and the prefetch candidates are the addresses that followed
	// the previous occurrence of the same address.
	GAC GHBIndexMethod = iota
	// GDC is global distance (delta) correlation: the index table is keyed
	// by the delta between consecutive miss addresses, and the deltas that
	// followed the previous occurrence of the same delta are replayed from
	// the current address.
	GDC
)

// String implements fmt.Stringer.
func (m GHBIndexMethod) String() string {
	if m == GDC {
		return "G/DC"
	}
	return "G/AC"
}

// ghbEntry is one history buffer entry. Link points at the absolute position
// of the previous entry with the same index key (or ^0 if none).
type ghbEntry struct {
	block mem.BlockAddr
	link  uint64
}

const noLink = ^uint64(0)

// ghbNode is the per-node GHB state.
type ghbNode struct {
	*perNode
	entries  []ghbEntry
	next     uint64 // absolute append position
	index    map[int64]uint64
	last     mem.BlockAddr
	haveLast bool
}

// GHB is the Global History Buffer baseline prefetcher.
type GHB struct {
	method GHBIndexMethod
	nodes  []*ghbNode
}

// NewGHB builds a GHB model with the given index method for the given node
// count.
func NewGHB(method GHBIndexMethod, nodes int) *GHB {
	g := &GHB{method: method}
	for i := 0; i < nodes; i++ {
		g.nodes = append(g.nodes, &ghbNode{
			perNode: newPerNode(),
			entries: make([]ghbEntry, HistoryEntries),
			index:   make(map[int64]uint64),
		})
	}
	return g
}

// Name implements Model.
func (g *GHB) Name() string { return "GHB " + g.method.String() }

// Consumption implements Model.
func (g *GHB) Consumption(e trace.Event) bool {
	n := g.node(e.Node)
	hit := n.lookup(e.Block)

	key := g.key(n, e.Block)
	prev, havePrev := n.index[key]
	// Record the new entry, linking it to the previous entry with the same
	// key.
	link := noLink
	if havePrev && g.resident(n, prev) {
		link = prev
	}
	pos := n.next
	n.entries[pos%HistoryEntries] = ghbEntry{block: e.Block, link: link}
	n.next++
	n.index[key] = pos

	// Issue prefetches from the previous occurrence, if it is still in the
	// history window.
	if havePrev && g.resident(n, prev) {
		g.prefetchFrom(n, prev, e.Block)
	}

	n.last = e.Block
	n.haveLast = true
	return hit
}

// key computes the index-table key for the current miss.
func (g *GHB) key(n *ghbNode, b mem.BlockAddr) int64 {
	if g.method == GDC {
		if !n.haveLast {
			return int64(^uint64(0) >> 1) // sentinel delta for the first miss
		}
		return int64(b) - int64(n.last)
	}
	return int64(b)
}

// resident reports whether an absolute history position is still within the
// circular buffer window.
func (g *GHB) resident(n *ghbNode, pos uint64) bool {
	if pos >= n.next {
		return false
	}
	return n.next-pos <= HistoryEntries
}

// at returns the entry at an absolute position.
func (g *GHB) at(n *ghbNode, pos uint64) ghbEntry {
	return n.entries[pos%HistoryEntries]
}

// prefetchFrom walks forward in the history from the previous occurrence of
// the key and issues up to Degree prefetches.
func (g *GHB) prefetchFrom(n *ghbNode, prev uint64, current mem.BlockAddr) {
	switch g.method {
	case GAC:
		// Prefetch the addresses that followed the previous occurrence.
		for i := uint64(1); i <= PrefetchDegree; i++ {
			pos := prev + i
			if !g.resident(n, pos) || pos >= n.next {
				break
			}
			n.insert(g.at(n, pos).block)
		}
	case GDC:
		// Replay the deltas that followed the previous occurrence, applied
		// cumulatively from the current address.
		addr := int64(current)
		for i := uint64(1); i <= PrefetchDegree; i++ {
			pos := prev + i
			if !g.resident(n, pos) || pos >= n.next {
				break
			}
			prevBlock := g.at(n, pos-1).block
			delta := int64(g.at(n, pos).block) - int64(prevBlock)
			addr += delta
			if addr < 0 {
				break
			}
			n.insert(mem.BlockAddr(addr))
		}
	}
}

// Write implements Model.
func (g *GHB) Write(e trace.Event) {
	for _, n := range g.nodes {
		n.buffer.Invalidate(uint64(e.Block))
	}
}

// Finish implements Model.
func (g *GHB) Finish() (fetched, discards uint64) {
	for _, n := range g.nodes {
		f, d := n.finish()
		fetched += f
		discards += d
	}
	return fetched, discards
}

func (g *GHB) node(id mem.NodeID) *ghbNode {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return g.nodes[0]
	}
	return g.nodes[id]
}
