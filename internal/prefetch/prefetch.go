// Package prefetch implements the baseline prefetchers the paper compares
// TSE against in Figure 12:
//
//   - a stride-based stream buffer in the style of predictor-directed stream
//     buffers [Sherwood et al.], as found in commercial processors: an
//     adaptive stride detector that prefetches eight blocks ahead once two
//     consecutive consumptions are separated by the same stride;
//   - the Global History Buffer prefetcher [Nesbit & Smith], with both
//     global/address-correlating (G/AC) and global/distance-correlating
//     (G/DC) index methods, a 512-entry history buffer and eight blocks
//     fetched per prefetch operation.
//
// Those parameters are the constants PrefetchDegree, BufferEntries and
// HistoryEntries; the constructors take only the node count and, for the
// GHB, the index method.
//
// As in the paper's comparison, the prefetchers train and predict only on
// consumptions, and prefetched blocks are stored in a small buffer identical
// to TSE's SVB rather than in the cache hierarchy. All baselines keep their
// history local to one node — the contrast with TSE, which locates streams
// at the most recent consumer anywhere in the system.
package prefetch

import (
	"tsm/internal/mem"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// Model is the evaluation interface shared by all baseline prefetchers:
// models observe the globally ordered consumption/write stream and report
// which consumptions their prefetch buffer covered. TSE is evaluated by
// tse.System directly.
type Model interface {
	// Name identifies the model in comparison tables.
	Name() string
	// Consumption observes a consumption event and reports whether the
	// model's prefetch buffer already held the block.
	Consumption(e trace.Event) bool
	// Write observes a write event (prefetched copies must be dropped).
	Write(e trace.Event)
	// Finish flushes internal state and returns the total number of
	// blocks fetched and the number of those that were never used.
	Finish() (fetched, discards uint64)
}

// BufferEntries is the capacity of the per-node prefetch buffer, matching
// the paper's 32-entry SVB.
const BufferEntries = 32

// PrefetchDegree is the number of blocks fetched per prefetch operation for
// the baseline prefetchers (eight in the paper's comparison).
const PrefetchDegree = 8

// HistoryEntries is the size of the GHB's on-chip circular history buffer
// (512 in the paper's comparison — far smaller than a CMOB, which is
// exactly why GHB coverage falls short).
const HistoryEntries = 512

// perNode bundles the prefetch buffer and fetch accounting shared by every
// baseline prefetcher.
type perNode struct {
	buffer  *tse.SVB
	fetched uint64
}

// newPerNode returns a node with an empty BufferEntries-entry buffer. The
// buffer is always bounded: it is keyed by raw block addresses, which an
// unlimited SVB cannot index.
func newPerNode() *perNode {
	return &perNode{buffer: tse.NewSVB(BufferEntries)}
}

// lookup probes the buffer and removes the block on a hit.
func (p *perNode) lookup(b mem.BlockAddr) bool {
	_, ok := p.buffer.Hit(uint64(b))
	return ok
}

// insert places a prefetched block in the buffer.
func (p *perNode) insert(b mem.BlockAddr) {
	if p.buffer.Contains(uint64(b)) {
		return
	}
	p.buffer.Insert(uint64(b), 0)
	p.fetched++
}

// finish flushes the buffer and returns fetch/discard totals.
func (p *perNode) finish() (fetched, discards uint64) {
	p.buffer.Flush()
	return p.fetched, p.buffer.Stats().Discards
}
