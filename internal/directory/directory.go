// Package directory implements the DSM directory: per-block sharing state
// (a full-map MSI directory with owner and sharer set) plus the TSE
// extension of Section 3.2 — one or more CMOB pointers per entry, each
// naming a node and an offset into that node's coherence miss order buffer
// where the block's address was most recently appended.
//
// The Directory type models the aggregate of all per-node directory slices.
// Its state is flat: one table of Entry values, reached from a block index
// through a single map, and one slab of CMOB pointers with PointersPerEntry
// slots per entry. The slab grows only when RecordCMOBPointer reaches an
// entry, so a directory that never records a pointer (the coherence
// engine's) pays nothing for it. Nothing is evicted: an entry, once
// allocated, lives as long as the directory.
package directory

import (
	"fmt"
	"math/bits"
	"slices"

	"tsm/internal/mem"
)

// State is the directory-visible sharing state of a block.
type State uint8

const (
	// Uncached means no cache holds the block.
	Uncached State = iota
	// Shared means one or more caches hold a clean copy.
	Shared
	// Modified means exactly one cache holds a dirty copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Uncached:
		return "uncached"
	case Shared:
		return "shared"
	case Modified:
		return "modified"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// CMOBPointer locates the most recent appearance of a block's address in
// some node's CMOB.
type CMOBPointer struct {
	// Node is the node whose CMOB holds the entry.
	Node mem.NodeID
	// Offset is the absolute append index within that CMOB (monotonically
	// increasing; the CMOB maps it onto its circular storage).
	Offset uint64
	// Valid reports whether the pointer has been set.
	Valid bool
}

// Entry is the directory state for one block.
type Entry struct {
	State      State
	Owner      mem.NodeID // valid when State == Modified
	Sharers    SharerSet
	LastWriter mem.NodeID // most recent writer ever (InvalidNode if none)
}

// SharerSet is a bitmap of nodes. It supports up to mem.MaxNodes (64)
// nodes, which covers the paper's 16-node system with room to spare.
type SharerSet uint64

// Add inserts a node into the set.
func (s *SharerSet) Add(n mem.NodeID) { *s |= 1 << uint(n) }

// Contains reports whether the node is in the set.
func (s SharerSet) Contains(n mem.NodeID) bool { return s&(1<<uint(n)) != 0 }

// Count returns the number of nodes in the set.
func (s SharerSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Clear empties the set.
func (s *SharerSet) Clear() { *s = 0 }

// Config parameterises the directory.
type Config struct {
	// Nodes is the number of nodes in the system.
	Nodes int
	// Geometry supplies the block size used to index blocks.
	Geometry mem.Geometry
	// PointersPerEntry is the number of CMOB pointers stored per block.
	// Basic temporal streaming needs one; the paper's TSE configuration
	// keeps pointers from a few recent consumers (two, matching the two
	// compared streams).
	PointersPerEntry int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > mem.MaxNodes {
		return fmt.Errorf("directory: node count %d out of range [1,%d]", c.Nodes, mem.MaxNodes)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.PointersPerEntry < 0 {
		return fmt.Errorf("directory: negative pointers per entry")
	}
	return nil
}

// Directory is the aggregate full-map directory.
type Directory struct {
	cfg     Config
	index   map[uint64]int32 // block index -> position in entries
	entries []Entry
	// ptrs holds PointersPerEntry slots for each of the first
	// len(ptrs)/PointersPerEntry entries, newest first; the valid pointers
	// are a prefix of an entry's slots.
	ptrs []CMOBPointer
}

// New builds an empty directory. It panics on an invalid configuration.
func New(cfg Config) *Directory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Directory{cfg: cfg, index: make(map[uint64]int32)}
}

// Entry returns the entry for a block, allocating an Uncached one on the
// block's first reference. The pointer is valid until the next entry
// allocation (Entry or RecordCMOBPointer on a block not yet referenced).
func (d *Directory) Entry(b mem.BlockAddr) *Entry {
	return &d.entries[d.slot(b)]
}

// slot returns the block's position in entries, allocating it if needed.
func (d *Directory) slot(b mem.BlockAddr) int {
	idx := d.cfg.Geometry.BlockIndex(mem.Addr(b))
	i, ok := d.index[idx]
	if !ok {
		i = int32(len(d.entries))
		d.entries = append(d.entries, Entry{State: Uncached, Owner: mem.InvalidNode, LastWriter: mem.InvalidNode})
		d.index[idx] = i
	}
	return int(i)
}

// Holds reports whether node n's (infinite) private cache holds the block:
// it is a sharer, or the owner of the dirty copy.
func (e *Entry) Holds(n mem.NodeID) bool {
	return e.Sharers.Contains(n) || (e.State == Modified && e.Owner == n)
}

// ReadResult describes the directory's response to a read request.
type ReadResult struct {
	// Coherent reports whether the miss is a coherent read miss (the
	// directory had to obtain the data from another node's dirty copy, or
	// the block was last written by a different node). The paper's TSE
	// triggers only on these.
	Coherent bool
	// Producer is the node that wrote the value being read
	// (InvalidNode when the value comes from untouched memory).
	Producer mem.NodeID
}

// Read processes a read request from a node that missed in its private
// cache hierarchy and updates sharing state.
func (e *Entry) Read(node mem.NodeID) ReadResult {
	res := ReadResult{Producer: e.LastWriter}
	switch e.State {
	case Modified:
		res.Coherent = e.Owner != node
		// Owner's copy is downgraded to shared.
		e.Sharers.Add(e.Owner)
		e.Sharers.Add(node)
		e.Owner = mem.InvalidNode
		e.State = Shared
	case Shared, Uncached:
		// Coherent when the last value was produced by another node and
		// this node is not already recorded as holding the block
		// (producer->consumer communication).
		res.Coherent = e.LastWriter != mem.InvalidNode && e.LastWriter != node && !e.Sharers.Contains(node)
		e.Sharers.Add(node)
		e.State = Shared
	}
	return res
}

// WriteResult describes the directory's response to a write (or upgrade)
// request.
type WriteResult struct {
	// Invalidated is the set of nodes whose copies were invalidated.
	Invalidated SharerSet
	// PreviousOwner is the node whose dirty copy was taken (InvalidNode
	// if none).
	PreviousOwner mem.NodeID
	// Coherent reports whether the write required invalidating or
	// fetching another node's copy.
	Coherent bool
}

// Write processes a write request (including upgrades from Shared) and
// updates sharing state.
func (e *Entry) Write(node mem.NodeID) WriteResult {
	res := WriteResult{PreviousOwner: mem.InvalidNode}
	switch e.State {
	case Modified:
		if e.Owner != node {
			res.PreviousOwner = e.Owner
			res.Invalidated.Add(e.Owner)
		}
	case Shared:
		res.Invalidated = e.Sharers &^ (1 << uint(node))
	}
	res.Coherent = res.Invalidated != 0
	e.Sharers.Clear()
	e.State = Modified
	e.Owner = node
	e.LastWriter = node
	return res
}

// RecordCMOBPointer stores a CMOB pointer for a block, keeping at most
// PointersPerEntry pointers with the newest first. A newer pointer from the
// same node replaces that node's older pointer rather than occupying an
// extra slot, so the retained pointers come from distinct recent consumers.
// It allocates the block's entry if needed and grows the pointer slab to
// cover it; recording into an entry the slab already covers does not
// allocate.
func (d *Directory) RecordCMOBPointer(b mem.BlockAddr, ptr CMOBPointer) {
	p := d.cfg.PointersPerEntry
	if p == 0 {
		return
	}
	i := d.slot(b)
	if need := (i + 1) * p; need > len(d.ptrs) {
		// Slots past len were never written, so they are zero (invalid).
		d.ptrs = slices.Grow(d.ptrs, need-len(d.ptrs))[:need]
	}
	slots := d.ptrs[i*p : (i+1)*p]
	// Shift the pointers ahead of the first slot that is invalid, holds
	// the same node, or is the last one (the oldest, which drops out).
	j := 0
	for j < p-1 && slots[j].Valid && slots[j].Node != ptr.Node {
		j++
	}
	copy(slots[1:j+1], slots[:j])
	ptr.Valid = true
	slots[0] = ptr
}

// CMOBPointers returns the stored CMOB pointers for a block, newest first
// (nil when none were recorded). The slice aliases the directory's pointer
// slab: it is valid only until the next RecordCMOBPointer, which shifts the
// slots in place and may move the slab, so callers must not retain or
// modify it. The TSE reads it before recording the consumption's own
// pointer.
func (d *Directory) CMOBPointers(b mem.BlockAddr) []CMOBPointer {
	p := d.cfg.PointersPerEntry
	i, ok := d.index[d.cfg.Geometry.BlockIndex(mem.Addr(b))]
	if !ok || (int(i)+1)*p > len(d.ptrs) {
		return nil
	}
	slots := d.ptrs[int(i)*p : (int(i)+1)*p]
	n := 0
	for n < p && slots[n].Valid {
		n++
	}
	if n == 0 {
		return nil
	}
	return slots[:n]
}
