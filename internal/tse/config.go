// Package tse implements the Temporal Streaming Engine, the paper's primary
// contribution (Section 3). It provides:
//
//   - the per-node Coherence Miss Order Buffer (CMOB), a memory-resident
//     circular buffer recording the node's order of coherent read misses
//     (Section 3.1);
//   - the directory CMOB-pointer extension used to locate streams
//     (Section 3.2; storage lives in internal/directory, the lookup logic
//     here);
//   - the per-node stream engine: stream queues holding one FIFO per
//     compared stream, head comparison, stall/reselect on divergence, and
//     half-empty refill from the source CMOB (Section 3.3);
//   - the Streamed Value Buffer (SVB), a small fully-associative buffer of
//     streamed blocks probed in parallel with the L2 (Section 3.3);
//   - a whole-system trace-driven model (System) that consumes the global
//     consumption/write event stream and reports coverage, discards, stream
//     lengths and traffic — the quantities plotted in Figures 7–13.
package tse

import (
	"fmt"

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
	// Geometry supplies the block size.
	Geometry mem.Geometry
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
	// SVB per active stream (Section 5.6 chooses it per workload).
	Lookahead int
	// FIFOCapacity is the number of addresses buffered per FIFO before
	// a refill is requested. Zero selects 2×Lookahead.
	FIFOCapacity int
}

// DefaultConfig returns the paper's chosen TSE configuration for a 16-node
// system.
func DefaultConfig() Config {
	return Config{
		Nodes:           16,
		Geometry:        mem.DefaultGeometry(),
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
	if err := c.Geometry.Validate(); err != nil {
		return err
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
	if c.FIFOCapacity < 0 {
		return fmt.Errorf("tse: negative FIFO capacity")
	}
	return nil
}

// fifoCapacity returns the effective per-FIFO address capacity.
func (c Config) fifoCapacity() int {
	if c.FIFOCapacity > 0 {
		return c.FIFOCapacity
	}
	return 2 * c.Lookahead
}

// CMOBBytes returns the per-node CMOB storage in bytes.
func (c Config) CMOBBytes() int { return c.CMOBEntries * CMOBEntryBytes }

// SVBBytes returns the per-node SVB storage in bytes.
func (c Config) SVBBytes() int { return c.SVBEntries * c.Geometry.BlockSize }
