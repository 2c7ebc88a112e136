// Package tse implements the Temporal Streaming Engine, the paper's primary
// contribution (Section 3). It provides:
//
//   - the per-node Coherence Miss Order Buffer (CMOB), a memory-resident
//     circular buffer recording the node's order of coherent read misses
//     (Section 3.1), allocated as it fills and never beyond its capacity;
//   - the directory's CMOB-pointer extension used to locate streams
//     (Section 3.2): a pointer table with ComparedStreams slots per
//     consumed block, kept apart from the MSI sharing state that
//     internal/coherence classifies with;
//   - the per-node stream engine: stream queues holding one FIFO per
//     compared stream, head comparison, stall/reselect on divergence, and
//     half-empty refill from the source CMOB (Section 3.3);
//   - the Streamed Value Buffer (SVB), a small fully-associative buffer of
//     streamed blocks probed in parallel with the L2 (Section 3.3);
//   - a whole-system trace-driven model (System) that consumes the global
//     consumption/write event stream and reports coverage, discards, stream
//     lengths and traffic — the quantities plotted in Figures 7–13.
//
// The per-event state is flat, like the fixed hardware it models, and is
// reached by index. A consumption makes the System's one hash probe: the
// pointer table's index names the block by a dense BlockID, assigned in
// first-seen order, and a write looks the id up without assigning one.
// Everything downstream carries the id: the pointer slab, the per-block
// holder masks (the SVBs holding each block, so a write visits only
// them), the CMOB entries and the stream FIFOs, which hold 4-byte ids.
// An SVB is a slice of entry values: bounded, it is searched linearly;
// unlimited, it adds a position table indexed by id. Inside a System an
// SVB probe of a block it does not hold reads one holder bit. Each stream
// queue owns its FIFO slots and their buffers and reuses them for every
// stream it holds, and its id names its slot. Once warm, a System
// allocates nothing per event, except a histogram bucket for a stream
// length never seen before.
//
// An SVB miss looks for its block in the lookahead windows of the stream
// queues' FIFOs (Section 3.3) only when some FIFO holds it. Each engine
// counts, per BlockID, the entries of its active queues' FIFOs that name
// the block: a CMOB read adds the addresses it appends, and a pop, a drop,
// a discarded FIFO or a retired queue subtracts what leaves. A window is a
// prefix of its FIFO, so a block with count 0 matches no window and the
// miss allocates a stream without scanning; a positive count runs both
// scans as before. Most misses skip: in the six unconstrained cells of a
// lookahead sweep over mix-sci-com (scale 0.25, 16 nodes, 64 queues), a
// scan reads about 48 queues and 581 window entries, only 14.7% of the
// 116,816 misses match a window, and 82.8% find count 0. A count is a
// uint16: it never exceeds the entries one engine's FIFOs hold, and
// Validate rejects a configuration whose StreamQueues × ComparedStreams ×
// 2·Lookahead (a FIFO holds twice the lookahead) exceeds 65,535. The
// counts grow when a FIFO first holds a new id, so a warm System still
// allocates nothing.
//
// Nothing in the package calls back into its users. Finish derives the
// traffic of each Figure 11 category from counters the engines and SVBs
// already keep (a message count times a message size). A caller that
// keeps a value per streamed block, like the timing model's arrival cycle,
// stores it in the block's SVB slot: after System.Consume it reads the
// slots the consumption streamed into with Engine.Fetched and stamps them
// (SVB.Stamp), and a later hit hands the stamp back (Engine.HitStamp).
// The stamps sit in a column beside the SVB's entries that the first Stamp
// creates, so an SVB that is never stamped keeps its entries as they were.
package tse

import (
	"fmt"
	"math"

	"tsm/internal/mem"
)

// CMOBEntryBytes is the size of one CMOB entry when packetized to memory:
// a 6-byte physical address (Section 5.4).
const CMOBEntryBytes = 6

// CMOBPointerBytes is the approximate size of a CMOB pointer update message
// payload (node id + offset).
const CMOBPointerBytes = 8

// Config collects every TSE hardware parameter. The defaults follow the
// configuration the paper settles on: two compared streams, a stream
// lookahead of eight, a 32-entry (2 KB) SVB, and a 1.5 MB CMOB per node.
type Config struct {
	// Nodes is the number of DSM nodes.
	Nodes int
	// CMOBEntries is the per-node CMOB capacity in entries. Zero means
	// effectively unlimited (used for the opportunity studies).
	CMOBEntries int
	// SVBEntries is the per-node SVB capacity in blocks. Zero means
	// unlimited.
	SVBEntries int
	// StreamQueues is the number of stream queues per node. Multiple
	// queues avoid stream thrashing (Section 5.3).
	StreamQueues int
	// ComparedStreams is the number of streams fetched and compared per
	// stream head (the paper settles on two, Section 5.2). It also sets
	// the number of CMOB pointers kept per directory entry.
	ComparedStreams int
	// Lookahead is the number of streamed blocks kept outstanding in the
	// SVB per active stream (Section 5.6 chooses it per workload). Each
	// FIFO buffers 2×Lookahead addresses and requests a refill when half
	// empty (Section 3.3).
	Lookahead int
}

// DefaultConfig returns the paper's chosen TSE configuration for a 16-node
// system.
func DefaultConfig() Config {
	return Config{
		Nodes:           16,
		CMOBEntries:     (1536 * 1024) / CMOBEntryBytes, // 1.5 MB per node
		SVBEntries:      32,                             // 2 KB of 64-byte blocks
		StreamQueues:    8,
		ComparedStreams: 2,
		Lookahead:       8,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > mem.MaxNodes {
		return fmt.Errorf("tse: node count %d out of range [1,%d]", c.Nodes, mem.MaxNodes)
	}
	if c.CMOBEntries < 0 || c.SVBEntries < 0 {
		return fmt.Errorf("tse: negative capacity")
	}
	if c.StreamQueues <= 0 {
		return fmt.Errorf("tse: need at least one stream queue")
	}
	if c.ComparedStreams <= 0 {
		return fmt.Errorf("tse: need at least one compared stream")
	}
	if c.Lookahead <= 0 {
		return fmt.Errorf("tse: lookahead must be positive")
	}
	// An engine's per-block FIFO counts are uint16s, and a count is at most
	// the FIFO entries the engine's queues hold.
	capacity := 2 * uint64(c.Lookahead)
	limit := uint64(math.MaxUint16)
	for _, f := range []uint64{uint64(c.StreamQueues), uint64(c.ComparedStreams), capacity} {
		if f > limit {
			return fmt.Errorf("tse: %d stream queues × %d compared streams × %d FIFO entries exceed %d entries per node",
				c.StreamQueues, c.ComparedStreams, capacity, uint64(math.MaxUint16))
		}
		limit /= f
	}
	return nil
}

// fifoCapacity returns the per-FIFO address capacity.
func (c Config) fifoCapacity() int { return 2 * c.Lookahead }
