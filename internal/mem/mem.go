// Package mem defines the basic memory-system vocabulary shared by every
// other package in the repository: physical addresses, cache-block geometry,
// node identifiers and memory access records.
//
// The paper's system (Table 1) uses a 64-byte coherence unit across a
// 16-node distributed shared-memory machine; those values are the defaults
// here but every structure is parameterised so tests can use smaller
// geometries.
package mem

import (
	"fmt"
)

// Addr is a physical byte address.
type Addr uint64

// BlockAddr is a cache-block-aligned address (the low offset bits are zero).
type BlockAddr uint64

// NodeID identifies a node (processor + caches + directory slice + memory
// slice) in the DSM system. NodeID values are dense, starting at zero.
type NodeID int

// InvalidNode is returned by lookups that found no node.
const InvalidNode NodeID = -1

// MaxNodes is the largest supported node count: the directory keeps each
// block's sharers in a 64-bit map, one bit per node. Every configuration
// and the trace-file header accept node counts in [1, MaxNodes].
const MaxNodes = 64

// DefaultBlockSize is the coherence unit from Table 1 of the paper.
const DefaultBlockSize = 64

// AccessType distinguishes the kinds of memory operations that appear in
// workload traces.
type AccessType uint8

const (
	// Read is a data load.
	Read AccessType = iota
	// Write is a data store.
	Write
	// AtomicRMW is an atomic read-modify-write (lock acquire/release,
	// barrier operations). The analysis excludes spins on such addresses
	// from the consumption counts, mirroring Section 5 of the paper.
	AtomicRMW
)

// String implements fmt.Stringer.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "read"
	case Write:
		return "write"
	case AtomicRMW:
		return "rmw"
	default:
		return fmt.Sprintf("AccessType(%d)", uint8(t))
	}
}

// Geometry captures the block geometry of the memory system.
type Geometry struct {
	// BlockSize is the coherence unit in bytes. Must be a power of two.
	BlockSize int
}

// DefaultGeometry returns the paper's 64-byte block geometry.
func DefaultGeometry() Geometry { return Geometry{BlockSize: DefaultBlockSize} }

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.BlockSize <= 0 {
		return fmt.Errorf("mem: block size must be positive, got %d", g.BlockSize)
	}
	if g.BlockSize&(g.BlockSize-1) != 0 {
		return fmt.Errorf("mem: block size must be a power of two, got %d", g.BlockSize)
	}
	return nil
}

// BlockOf returns the block-aligned address containing a.
func (g Geometry) BlockOf(a Addr) BlockAddr {
	return BlockAddr(uint64(a) &^ uint64(g.BlockSize-1))
}

// Offset returns the byte offset of a within its block.
func (g Geometry) Offset(a Addr) int {
	return int(uint64(a) & uint64(g.BlockSize-1))
}

// BlockIndex returns the dense block number of a (address divided by the
// block size). Useful for keying maps without wasting the offset bits.
func (g Geometry) BlockIndex(a Addr) uint64 {
	return uint64(a) / uint64(g.BlockSize)
}

// Access is a single memory operation performed by a node. Workload
// generators emit Access values; the functional coherence engine turns them
// into classified events (hits, private misses, consumptions).
type Access struct {
	// Node is the node performing the access.
	Node NodeID
	// Addr is the byte address accessed.
	Addr Addr
	// Type is the operation type.
	Type AccessType
	// Shared marks accesses to data the workload knows to be actively
	// shared. It is advisory; the coherence engine classifies misses from
	// directory state regardless.
	Shared bool
	// Spin marks accesses that are part of a spin on a contended lock or
	// barrier. The paper excludes these from consumption counts because
	// there is no benefit to streaming them.
	Spin bool
}

// Consumption is a coherent read miss that is not a spin: the unit the paper
// calls a "consumption" and the event stream every TSE/prefetcher model in
// this repository operates on.
type Consumption struct {
	// Seq is the global order of the consumption across all nodes.
	Seq uint64
	// Node is the consuming node.
	Node NodeID
	// Block is the block-aligned address consumed.
	Block BlockAddr
	// Producer is the node whose write produced the value being consumed
	// (InvalidNode when the block came from memory).
	Producer NodeID
	// Cycle is the (approximate) cycle at which the consumption was
	// issued; zero in purely functional traces.
	Cycle uint64
}
