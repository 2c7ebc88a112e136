package prefetch

import (
	"tsm/internal/mem"
	"tsm/internal/trace"
)

// StrideConfig parameterises the stride stream-buffer prefetcher.
type StrideConfig struct {
	// Nodes is the number of nodes.
	Nodes int
	// Geometry supplies the block size.
	Geometry mem.Geometry
	// Degree is the number of blocks prefetched ahead once a stride is
	// confirmed (eight in the paper's comparison).
	Degree int
	// BufferEntries is the per-node prefetch buffer capacity; zero or
	// less selects BufferEntries. The buffer is always bounded: it is
	// keyed by raw block addresses, which an unlimited SVB cannot index.
	BufferEntries int
}

// DefaultStrideConfig returns the Figure 12 configuration for 16 nodes.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{
		Nodes:         16,
		Geometry:      mem.DefaultGeometry(),
		Degree:        PrefetchDegree,
		BufferEntries: BufferEntries,
	}
}

// strideNode is the per-node adaptive stride detector.
type strideNode struct {
	*perNode
	lastBlock  mem.BlockAddr
	lastStride int64
	haveLast   bool
	confirmed  bool
}

// Stride is the stride-based stream-buffer baseline.
type Stride struct {
	cfg   StrideConfig
	nodes []*strideNode
}

// NewStride builds the stride prefetcher model.
func NewStride(cfg StrideConfig) *Stride {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Degree <= 0 {
		cfg.Degree = PrefetchDegree
	}
	if cfg.BufferEntries <= 0 {
		cfg.BufferEntries = BufferEntries
	}
	s := &Stride{cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		s.nodes = append(s.nodes, &strideNode{perNode: newPerNode(cfg.BufferEntries)})
	}
	return s
}

// Name implements Model.
func (s *Stride) Name() string { return "Stride" }

// Consumption implements Model: it probes the buffer, then trains the stride
// detector and issues prefetches when two consecutive consumptions share the
// same non-zero stride.
func (s *Stride) Consumption(e trace.Event) bool {
	n := s.node(e.Node)
	hit := n.lookup(e.Block)

	if n.haveLast {
		stride := int64(e.Block) - int64(n.lastBlock)
		if stride != 0 && stride == n.lastStride {
			n.confirmed = true
			for i := 1; i <= s.cfg.Degree; i++ {
				next := int64(e.Block) + stride*int64(i)
				if next < 0 {
					break
				}
				n.insert(mem.BlockAddr(next))
			}
		} else {
			n.confirmed = false
		}
		n.lastStride = stride
	}
	n.lastBlock = e.Block
	n.haveLast = true
	return hit
}

// Write implements Model.
func (s *Stride) Write(e trace.Event) {
	for _, n := range s.nodes {
		n.buffer.Invalidate(uint64(e.Block))
	}
}

// Finish implements Model.
func (s *Stride) Finish() (fetched, discards uint64) {
	for _, n := range s.nodes {
		f, d := n.finish()
		fetched += f
		discards += d
	}
	return fetched, discards
}

func (s *Stride) node(id mem.NodeID) *strideNode {
	if int(id) < 0 || int(id) >= len(s.nodes) {
		return s.nodes[0]
	}
	return s.nodes[id]
}
