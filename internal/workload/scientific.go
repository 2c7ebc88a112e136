package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// Address-space regions used by the scientific generators.
const (
	regionEM3DValues = 1
	regionMoldynPos  = 2
	regionOceanGrid  = 3
	regionOceanGrid2 = 4
)

// EM3D models the electromagnetic-force kernel of Culler et al.'s em3d: a
// bipartite graph whose nodes are partitioned across processors. Each
// iteration every processor updates its own graph nodes and then reads the
// values of its neighbours; remote neighbours (a configurable percentage,
// 15% in Table 2) cause coherent read misses. Because the graph is fixed,
// each processor's remote-read order is identical across iterations, which
// is the source of em3d's near-perfect temporal correlation and very long
// streams (Figures 6 and 13).
type EM3D struct {
	cfg        Config
	graphNodes int
	degree     int
	span       int
	remotePct  float64
	iterations int
	neighbors  [][]int // per graph node, neighbour graph-node indices
}

// NewEM3D builds an em3d generator. The default problem is scaled down from
// the paper's 400K graph nodes to keep trace sizes tractable; Scale restores
// larger problems.
func NewEM3D(cfg Config) *EM3D {
	cfg = cfg.normalize()
	g := &EM3D{
		cfg:        cfg,
		graphNodes: scaled(40000, cfg.Scale, 64*cfg.Nodes),
		degree:     2,
		span:       5,
		remotePct:  0.15,
		iterations: repeated(15, cfg.Repeat),
	}
	g.buildGraph()
	return g
}

// Name implements Generator.
func (g *EM3D) Name() string { return "em3d" }

// Class implements Generator.
func (g *EM3D) Class() Class { return Scientific }

// Timing implements Generator. The stall breakdown follows Figure 14's
// baseline bars (em3d is communication bound) and the MLP/lookahead values
// follow Table 3.
func (g *EM3D) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.20,
		OtherStallFraction:    0.10,
		CoherentStallFraction: 0.70,
		MLP:                   2.0,
		Lookahead:             18,
	}
}

// owner returns the processor owning a graph node (contiguous partition).
func (g *EM3D) owner(node int) int {
	per := (g.graphNodes + g.cfg.Nodes - 1) / g.cfg.Nodes
	return node / per
}

func (g *EM3D) buildGraph() {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	per := (g.graphNodes + g.cfg.Nodes - 1) / g.cfg.Nodes
	g.neighbors = make([][]int, g.graphNodes)
	for n := 0; n < g.graphNodes; n++ {
		owner := g.owner(n)
		for d := 0; d < g.degree; d++ {
			var nb int
			if rng.Float64() < g.remotePct {
				// Remote neighbour on a processor within +/- span.
				offset := rng.Intn(2*g.span) - g.span
				if offset == 0 {
					offset = 1
				}
				p := ((owner+offset)%g.cfg.Nodes + g.cfg.Nodes) % g.cfg.Nodes
				nb = p*per + rng.Intn(per)
			} else {
				nb = owner*per + rng.Intn(per)
			}
			if nb >= g.graphNodes {
				nb = g.graphNodes - 1
			}
			g.neighbors[n] = append(g.neighbors[n], nb)
		}
	}
}

// Emit implements Generator.
func (g *EM3D) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(g.cfg.Seed + 17))
	per := (g.graphNodes + g.cfg.Nodes - 1) / g.cfg.Nodes
	// Per-node phase lengths are fixed across iterations; count the
	// neighbour reads once.
	readCount := make([]int, g.cfg.Nodes)
	for p := 0; p < g.cfg.Nodes; p++ {
		lo, hi := band(p, per, g.graphNodes)
		for n := lo; n < hi; n++ {
			readCount[p] += len(g.neighbors[n])
		}
	}
	writes := make([]cursor, g.cfg.Nodes)
	reads := make([]cursor, g.cfg.Nodes)
	for it := 0; it < g.iterations; it++ {
		// Phase 1: every processor updates its own graph nodes.
		for p := 0; p < g.cfg.Nodes; p++ {
			lo, hi := band(p, per, g.graphNodes)
			writes[p] = rangeCursor(mem.NodeID(p), regionEM3DValues, lo, hi, mem.Write)
		}
		if err := interleaveEmit(writes, 64, rng, yield); err != nil {
			return err
		}

		// Phase 2: every processor reads its neighbours' values in graph
		// order; remote neighbours are the coherent read misses.
		for p := 0; p < g.cfg.Nodes; p++ {
			p := p
			lo, _ := band(p, per, g.graphNodes)
			n, d := lo, 0
			reads[p] = cursor{n: readCount[p], next: func() mem.Access {
				for d >= len(g.neighbors[n]) {
					n++
					d = 0
				}
				nb := g.neighbors[n][d]
				d++
				return mem.Access{
					Node: mem.NodeID(p), Addr: blockAddr(regionEM3DValues, nb),
					Type: mem.Read, Shared: true,
				}
			}}
		}
		if err := interleaveEmit(reads, 64, rng, yield); err != nil {
			return err
		}
	}
	return nil
}

// Moldyn models the molecular-dynamics kernel of Mukherjee et al.: molecules
// are partitioned across processors; every iteration each processor updates
// its molecules' positions and then walks its interaction list, reading the
// positions of partner molecules, a fraction of which live on other
// processors. The interaction list is rebuilt periodically (molecules move
// between neighbourhoods), so streams are long and repetitive but not
// perfectly persistent.
type Moldyn struct {
	cfg          Config
	molecules    int
	interactions int
	rebuildEvery int
	churn        float64
	iterations   int
}

// NewMoldyn builds a moldyn generator (scaled down from 19652 molecules /
// 2.56M interactions).
func NewMoldyn(cfg Config) *Moldyn {
	cfg = cfg.normalize()
	m := &Moldyn{
		cfg:          cfg,
		molecules:    scaled(8192, cfg.Scale, 64*cfg.Nodes),
		rebuildEvery: 6,
		churn:        0.08,
		iterations:   repeated(15, cfg.Repeat),
	}
	m.interactions = m.molecules * 6
	return m
}

// Name implements Generator.
func (m *Moldyn) Name() string { return "moldyn" }

// Class implements Generator.
func (m *Moldyn) Class() Class { return Scientific }

// Timing implements Generator (Table 3: MLP 1.6, lookahead 16).
func (m *Moldyn) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.35,
		OtherStallFraction:    0.20,
		CoherentStallFraction: 0.45,
		MLP:                   1.6,
		Lookahead:             16,
	}
}

func (m *Moldyn) owner(mol int) int {
	per := (m.molecules + m.cfg.Nodes - 1) / m.cfg.Nodes
	return mol / per
}

// Emit implements Generator.
func (m *Moldyn) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 29))
	per := (m.molecules + m.cfg.Nodes - 1) / m.cfg.Nodes
	// Interaction list: pairs (local molecule, partner molecule). Partners
	// are drawn mostly from the same processor with a remote fraction that
	// produces the coherent traffic.
	type pair struct{ local, partner int }
	buildPairs := func() [][]pair {
		perNode := make([][]pair, m.cfg.Nodes)
		for p := 0; p < m.cfg.Nodes; p++ {
			lo, hi := p*per, (p+1)*per
			if hi > m.molecules {
				hi = m.molecules
			}
			count := m.interactions / m.cfg.Nodes
			for i := 0; i < count; i++ {
				local := lo + rng.Intn(hi-lo)
				var partner int
				if rng.Float64() < 0.25 {
					// Remote partner. With a spatial decomposition almost
					// all remote interactions reach the adjacent processor
					// and each boundary molecule is read by essentially one
					// remote consumer, which is what gives moldyn its
					// near-perfect temporal correlation.
					q := (p + 1) % m.cfg.Nodes
					if m.cfg.Nodes > 2 && rng.Float64() < 0.05 {
						q = rng.Intn(m.cfg.Nodes)
					}
					qlo := q * per
					qhi := qlo + per
					if qhi > m.molecules {
						qhi = m.molecules
					}
					partner = qlo + rng.Intn(qhi-qlo)
				} else {
					partner = lo + rng.Intn(hi-lo)
				}
				perNode[p] = append(perNode[p], pair{local, partner})
			}
		}
		return perNode
	}
	pairs := buildPairs()

	writes := make([]cursor, m.cfg.Nodes)
	reads := make([]cursor, m.cfg.Nodes)
	for it := 0; it < m.iterations; it++ {
		if it > 0 && it%m.rebuildEvery == 0 {
			// Periodic neighbour-list rebuild: a fraction of pairs change.
			// New partners come from the same spatial neighbourhood (the
			// owning processor's band or the adjacent one), as molecules
			// drift only gradually between neighbourhoods.
			for p := range pairs {
				for i := range pairs[p] {
					if rng.Float64() < m.churn {
						q := p
						if rng.Float64() < 0.25 {
							q = (p + 1) % m.cfg.Nodes
						}
						qlo := q * per
						qhi := qlo + per
						if qhi > m.molecules {
							qhi = m.molecules
						}
						pairs[p][i].partner = qlo + rng.Intn(qhi-qlo)
					}
				}
			}
		}
		// Phase 1: position updates (writes by owners).
		for p := 0; p < m.cfg.Nodes; p++ {
			lo, hi := band(p, per, m.molecules)
			writes[p] = rangeCursor(mem.NodeID(p), regionMoldynPos, lo, hi, mem.Write)
		}
		if err := interleaveEmit(writes, 64, rng, yield); err != nil {
			return err
		}

		// Phase 2: force computation reads partner positions in list order.
		for p := 0; p < m.cfg.Nodes; p++ {
			list := pairs[p]
			reads[p] = indexCursor(mem.NodeID(p), regionMoldynPos, len(list),
				func(i int) int { return list[i].partner }, mem.Read)
		}
		if err := interleaveEmit(reads, 64, rng, yield); err != nil {
			return err
		}
	}
	return nil
}

// Ocean models the SPLASH-2 ocean current simulation: a 2D grid partitioned
// into horizontal bands, one per processor. Each relaxation sweep a
// processor updates its band and then reads the boundary rows of its
// neighbours. The boundary exchange arrives in bursts (ocean blocks its
// computation), which is why ocean shows the high consumption MLP of
// Table 3 and why even a large lookahead only partially hides its misses.
type Ocean struct {
	cfg        Config
	rows, cols int
	iterations int
}

// NewOcean builds an ocean generator (scaled down from the 514x514 grid).
func NewOcean(cfg Config) *Ocean {
	cfg = cfg.normalize()
	side := scaled(258, cfg.Scale, 4*cfg.Nodes)
	return &Ocean{cfg: cfg, rows: side, cols: side, iterations: repeated(12, cfg.Repeat)}
}

// Name implements Generator.
func (o *Ocean) Name() string { return "ocean" }

// Class implements Generator.
func (o *Ocean) Class() Class { return Scientific }

// Timing implements Generator (Table 3: MLP 6.6, lookahead 24).
func (o *Ocean) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.45,
		OtherStallFraction:    0.30,
		CoherentStallFraction: 0.25,
		MLP:                   6.6,
		Lookahead:             24,
	}
}

// Emit implements Generator.
func (o *Ocean) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(o.cfg.Seed + 43))
	bandRows := (o.rows + o.cfg.Nodes - 1) / o.cfg.Nodes
	// Ocean keeps several grids (stream function, vorticity, ...); the
	// boundary exchange reads the same row of more than one grid, which is
	// why its coherent read misses do not form a simple strided sequence
	// even though the data is array based.
	cellA := func(r, c int) mem.Addr {
		return blockAddr(regionOceanGrid, r*o.cols+c)
	}
	cellB := func(r, c int) mem.Addr {
		return blockAddr(regionOceanGrid2, r*o.cols+c)
	}
	// rowCursor walks nrows rows (row(0)..row(nrows-1)) cell by cell,
	// emitting the grid-A and grid-B access of each cell back to back.
	rowCursor := func(p, nrows int, row func(int) int, typ mem.AccessType) cursor {
		ri, c, second := 0, 0, false
		return cursor{n: 2 * o.cols * nrows, next: func() mem.Access {
			r := row(ri)
			var addr mem.Addr
			if second {
				addr = cellB(r, c)
				c++
				if c == o.cols {
					c = 0
					ri++
				}
			} else {
				addr = cellA(r, c)
			}
			second = !second
			return mem.Access{Node: mem.NodeID(p), Addr: addr, Type: typ, Shared: true}
		}}
	}
	writes := make([]cursor, o.cfg.Nodes)
	reads := make([]cursor, o.cfg.Nodes)
	for it := 0; it < o.iterations; it++ {
		// Phase 1: interior update — each processor writes its band of both
		// grids.
		for p := 0; p < o.cfg.Nodes; p++ {
			lo, hi := band(p, bandRows, o.rows)
			nrows := hi - lo
			if nrows < 0 {
				nrows = 0
			}
			writes[p] = rowCursor(p, nrows, func(i int) int { return lo + i }, mem.Write)
		}
		if err := interleaveEmit(writes, 128, rng, yield); err != nil {
			return err
		}

		// Phase 2: boundary exchange — each processor reads the rows just
		// outside its band from both grids, in a tight burst (large
		// interleave chunk), which is what gives ocean its bursty
		// consumption behaviour and high MLP.
		for p := 0; p < o.cfg.Nodes; p++ {
			lo, hi := band(p, bandRows, o.rows)
			// The rows just outside the band: above (when the band does not
			// start the grid) and below (when it does not end it).
			var boundary [2]int
			nrows := 0
			if lo > 0 {
				boundary[nrows] = lo - 1
				nrows++
			}
			if hi < o.rows {
				boundary[nrows] = hi
				nrows++
			}
			reads[p] = rowCursor(p, nrows, func(i int) int { return boundary[i] }, mem.Read)
		}
		if err := interleaveEmit(reads, 2*o.cols, rng, yield); err != nil {
			return err
		}
	}
	return nil
}
