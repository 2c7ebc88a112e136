package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// Address-space region used by the graph analytics generator.
const regionGraphRank = 20 // per-vertex rank values

// PageRank models an iterative graph-analytics kernel (PageRank-style
// push/pull) over a scale-free graph partitioned across the nodes. Unlike
// em3d's uniform bipartite graph, the edge distribution is power-law: most
// edges stay within a partition or reach the adjacent one, but a small set
// of hub vertices is read by every node in every iteration. The fixed
// traversal order makes the remote-read streams perfectly repetitive (long
// streams, near-total temporal correlation), while the hubs add the
// single-producer/many-consumer sharing the paper highlights for producer-
// consumer workloads — each hub's consumption sequence recurs at many
// different nodes between updates.
type PageRank struct {
	cfg        Config
	vertices   int
	hubs       int
	iterations int
	// gather lists, per node: the vertex ids read during one iteration, in
	// fixed order. Built once; the graph does not change.
	gather [][]int
}

// NewPageRank builds a graph-analytics generator.
func NewPageRank(cfg Config) *PageRank {
	cfg = cfg.normalize()
	g := &PageRank{
		cfg:        cfg,
		vertices:   scaled(24000, cfg.Scale, 64*cfg.Nodes),
		hubs:       16,
		iterations: repeated(12, cfg.Repeat),
	}
	g.buildGather()
	return g
}

// Name implements Generator.
func (g *PageRank) Name() string { return "pagerank" }

// Class implements Generator.
func (g *PageRank) Class() Class { return Scientific }

// Timing implements Generator. Graph analytics is dominated by irregular
// remote reads (rank gathers), so the coherent stall fraction is high and
// the gather loop sustains a few misses in flight.
func (g *PageRank) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.25,
		OtherStallFraction:    0.15,
		CoherentStallFraction: 0.60,
		MLP:                   2.4,
		Lookahead:             16,
	}
}

func (g *PageRank) buildGather() {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 307))
	per := (g.vertices + g.cfg.Nodes - 1) / g.cfg.Nodes
	// Hub vertices are spread across the partitions (one partition would
	// serialise every gather on a single producer node).
	hubIDs := make([]int, g.hubs)
	for i := range hubIDs {
		hubIDs[i] = rng.Intn(g.vertices)
	}
	g.gather = make([][]int, g.cfg.Nodes)
	for p := 0; p < g.cfg.Nodes; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > g.vertices {
			hi = g.vertices
		}
		for v := lo; v < hi; v++ {
			degree := 1 + rng.Intn(3)
			for d := 0; d < degree; d++ {
				var src int
				switch r := rng.Float64(); {
				case r < 0.05:
					// Power-law tail: an edge from a global hub.
					src = hubIDs[rng.Intn(g.hubs)]
				case r < 0.30:
					// Cut edge to the adjacent partition (spatial locality of
					// the partitioner). Ceil-division can leave the last
					// partition empty (or clamped shorter than qlo); fall back
					// to an intra-partition edge rather than drawing from an
					// empty range.
					q := (p + 1) % g.cfg.Nodes
					qlo, qhi := q*per, (q+1)*per
					if qhi > g.vertices {
						qhi = g.vertices
					}
					if qhi > qlo {
						src = qlo + rng.Intn(qhi-qlo)
					} else {
						src = lo + rng.Intn(hi-lo)
					}
				default:
					// Intra-partition edge (a private read after the owner's
					// own update; not a coherent miss).
					src = lo + rng.Intn(hi-lo)
				}
				g.gather[p] = append(g.gather[p], src)
			}
		}
	}
}

// Emit implements Generator. Each iteration every node scatters its own
// vertices' ranks (writes) and then gathers along its in-edges in fixed
// order; remote and hub sources are the coherent read misses.
func (g *PageRank) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 311))
	per := (g.vertices + g.cfg.Nodes - 1) / g.cfg.Nodes
	writes := make([]cursor, g.cfg.Nodes)
	reads := make([]cursor, g.cfg.Nodes)
	for it := 0; it < g.iterations; it++ {
		// Scatter phase: owners update their vertices.
		for p := 0; p < g.cfg.Nodes; p++ {
			lo, hi := band(p, per, g.vertices)
			writes[p] = rangeCursor(mem.NodeID(p), regionGraphRank, lo, hi, mem.Write)
		}
		if err := interleaveEmit(writes, 64, rng, yield); err != nil {
			return err
		}

		// Gather phase: fixed-order rank reads along the in-edges.
		for p := 0; p < g.cfg.Nodes; p++ {
			list := g.gather[p]
			reads[p] = indexCursor(mem.NodeID(p), regionGraphRank, len(list),
				func(i int) int { return list[i] }, mem.Read)
		}
		if err := interleaveEmit(reads, 64, rng, yield); err != nil {
			return err
		}
	}
	return nil
}
