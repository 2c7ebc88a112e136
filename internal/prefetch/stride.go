package prefetch

import (
	"tsm/internal/mem"
	"tsm/internal/trace"
)

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
	nodes []*strideNode
}

// NewStride builds the stride prefetcher model for the given node count.
func NewStride(nodes int) *Stride {
	s := &Stride{}
	for i := 0; i < nodes; i++ {
		s.nodes = append(s.nodes, &strideNode{perNode: newPerNode()})
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
			for i := 1; i <= PrefetchDegree; i++ {
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
