// Package directory implements the DSM directory: per-block sharing state
// (a full-map MSI directory with owner and sharer set) plus the TSE
// extension of Section 3.2 — one or more CMOB pointers per entry, each
// naming a node and an offset into that node's coherence miss order buffer
// where the block's address was most recently appended.
//
// Blocks are home-distributed across nodes by block index; the Directory
// type here models the aggregate of all per-node directory slices, which is
// sufficient because the functional and timing models only need the home
// node's identity to charge latency and traffic.
package directory

import (
	"fmt"

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
	// CMOBPtrs holds the most recent CMOB pointers, newest first. Its
	// length is bounded by the directory's PointersPerEntry.
	CMOBPtrs []CMOBPointer
}

// SharerSet is a bitmap of nodes holding a shared copy. It supports up to
// mem.MaxNodes (64) nodes, which covers the paper's 16-node system with room
// to spare.
type SharerSet uint64

// Add inserts a node into the set.
func (s *SharerSet) Add(n mem.NodeID) { *s |= 1 << uint(n) }

// Contains reports whether the node is in the set.
func (s SharerSet) Contains(n mem.NodeID) bool { return s&(1<<uint(n)) != 0 }

// Count returns the number of nodes in the set.
func (s SharerSet) Count() int {
	n := 0
	for v := uint64(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Clear empties the set.
func (s *SharerSet) Clear() { *s = 0 }

// Nodes returns the members of the set in ascending order.
func (s SharerSet) Nodes() []mem.NodeID {
	var out []mem.NodeID
	for i := 0; i < 64; i++ {
		if s.Contains(mem.NodeID(i)) {
			out = append(out, mem.NodeID(i))
		}
	}
	return out
}

// Config parameterises the directory.
type Config struct {
	// Nodes is the number of nodes in the system.
	Nodes int
	// Geometry supplies the block size used to home blocks.
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
	entries map[uint64]*Entry // keyed by block index
}

// New builds an empty directory. It panics on an invalid configuration.
func New(cfg Config) *Directory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Directory{cfg: cfg, entries: make(map[uint64]*Entry)}
}

// Config returns the directory configuration.
func (d *Directory) Config() Config { return d.cfg }

// HomeNode returns the node whose memory (and directory slice) owns the
// block. Blocks are interleaved across nodes at block granularity.
func (d *Directory) HomeNode(b mem.BlockAddr) mem.NodeID {
	return mem.NodeID(d.cfg.Geometry.BlockIndex(mem.Addr(b)) % uint64(d.cfg.Nodes))
}

// Entries returns the number of blocks with directory state allocated.
func (d *Directory) Entries() int { return len(d.entries) }

// Lookup returns the entry for a block, or nil if the block has never been
// referenced.
func (d *Directory) Lookup(b mem.BlockAddr) *Entry {
	return d.entries[d.cfg.Geometry.BlockIndex(mem.Addr(b))]
}

// entry returns the entry for a block, allocating it if needed.
func (d *Directory) entry(b mem.BlockAddr) *Entry {
	idx := d.cfg.Geometry.BlockIndex(mem.Addr(b))
	e, ok := d.entries[idx]
	if !ok {
		e = &Entry{State: Uncached, Owner: mem.InvalidNode, LastWriter: mem.InvalidNode}
		d.entries[idx] = e
	}
	return e
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
	// Owner is the previous owner that must forward/downgrade its copy
	// (InvalidNode when memory supplies the data).
	Owner mem.NodeID
	// CMOBPtrs is a copy of the CMOB pointers recorded for the block at
	// request time (newest first).
	CMOBPtrs []CMOBPointer
}

// Read processes a read request from a node that missed in its private
// cache hierarchy and updates sharing state.
func (d *Directory) Read(node mem.NodeID, b mem.BlockAddr) ReadResult {
	e := d.entry(b)
	res := ReadResult{Producer: e.LastWriter, Owner: mem.InvalidNode}
	if len(e.CMOBPtrs) > 0 {
		res.CMOBPtrs = append([]CMOBPointer(nil), e.CMOBPtrs...)
	}
	switch e.State {
	case Modified:
		res.Owner = e.Owner
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
	// Invalidated lists the nodes whose copies were invalidated.
	Invalidated []mem.NodeID
	// PreviousOwner is the node whose dirty copy was taken (InvalidNode
	// if none).
	PreviousOwner mem.NodeID
	// Coherent reports whether the write required invalidating or
	// fetching another node's copy.
	Coherent bool
}

// Write processes a write request (including upgrades from Shared) and
// updates sharing state.
func (d *Directory) Write(node mem.NodeID, b mem.BlockAddr) WriteResult {
	e := d.entry(b)
	var res WriteResult
	res.PreviousOwner = mem.InvalidNode
	switch e.State {
	case Modified:
		if e.Owner != node {
			res.PreviousOwner = e.Owner
			res.Invalidated = append(res.Invalidated, e.Owner)
			res.Coherent = true
		}
	case Shared:
		for _, s := range e.Sharers.Nodes() {
			if s != node {
				res.Invalidated = append(res.Invalidated, s)
				res.Coherent = true
			}
		}
	}
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
func (d *Directory) RecordCMOBPointer(b mem.BlockAddr, ptr CMOBPointer) {
	if d.cfg.PointersPerEntry == 0 {
		return
	}
	e := d.entry(b)
	ptr.Valid = true
	// Drop any existing pointer from the same node.
	kept := e.CMOBPtrs[:0]
	for _, p := range e.CMOBPtrs {
		if p.Node != ptr.Node {
			kept = append(kept, p)
		}
	}
	e.CMOBPtrs = append([]CMOBPointer{ptr}, kept...)
	if len(e.CMOBPtrs) > d.cfg.PointersPerEntry {
		e.CMOBPtrs = e.CMOBPtrs[:d.cfg.PointersPerEntry]
	}
}

// CMOBPointers returns the stored CMOB pointers for a block, newest first.
func (d *Directory) CMOBPointers(b mem.BlockAddr) []CMOBPointer {
	e := d.entries[d.cfg.Geometry.BlockIndex(mem.Addr(b))]
	if e == nil {
		return nil
	}
	return append([]CMOBPointer(nil), e.CMOBPtrs...)
}

// PointerStorageBits returns the directory storage overhead, in bits per
// entry, of the CMOB pointer extension:
// pointers × (log2(nodes) + log2(cmobEntries)), per Section 3.2.
func (d *Directory) PointerStorageBits(cmobEntries int) int {
	if cmobEntries <= 0 {
		return 0
	}
	return d.cfg.PointersPerEntry * (ceilLog2(d.cfg.Nodes) + ceilLog2(cmobEntries))
}

func ceilLog2(n int) int {
	bits := 0
	for v := 1; v < n; v <<= 1 {
		bits++
	}
	return bits
}

// Reset clears all directory state.
func (d *Directory) Reset() {
	d.entries = make(map[uint64]*Entry)
}
