package coherence

import (
	"fmt"
	"math/bits"

	"tsm/internal/mem"
)

// blockState is the directory-visible sharing state of a block.
type blockState uint8

const (
	// uncached means no cache holds the block.
	uncached blockState = iota
	// shared means one or more caches hold a clean copy.
	shared
	// modified means exactly one cache holds a dirty copy.
	modified
)

// String implements fmt.Stringer.
func (s blockState) String() string {
	switch s {
	case uncached:
		return "uncached"
	case shared:
		return "shared"
	case modified:
		return "modified"
	default:
		return fmt.Sprintf("blockState(%d)", uint8(s))
	}
}

// dirEntry is the directory state for one block.
type dirEntry struct {
	state      blockState
	owner      mem.NodeID // valid when state == modified
	sharers    SharerSet
	lastWriter mem.NodeID // most recent writer ever (InvalidNode if none)
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

// directory is the aggregate full-map MSI directory of all nodes. Its state
// is flat: one table of entries, reached from a block index through a
// single map. Nothing is evicted: an entry, once allocated, lives as long as
// the directory.
type directory struct {
	geo     mem.Geometry
	index   map[uint64]int32 // block index -> position in entries
	entries []dirEntry
}

func newDirectory(geo mem.Geometry) *directory {
	return &directory{geo: geo, index: make(map[uint64]int32)}
}

// entry returns the entry for a block, allocating an uncached one on the
// block's first reference. The pointer is valid until the next entry
// allocation.
func (d *directory) entry(b mem.BlockAddr) *dirEntry {
	idx := d.geo.BlockIndex(mem.Addr(b))
	i, ok := d.index[idx]
	if !ok {
		i = int32(len(d.entries))
		d.entries = append(d.entries, dirEntry{state: uncached, owner: mem.InvalidNode, lastWriter: mem.InvalidNode})
		d.index[idx] = i
	}
	return &d.entries[i]
}

// holds reports whether node n's (infinite) private cache holds the block:
// it is a sharer, or the owner of the dirty copy.
func (e *dirEntry) holds(n mem.NodeID) bool {
	return e.sharers.Contains(n) || (e.state == modified && e.owner == n)
}

// readResult describes the directory's response to a read request.
type readResult struct {
	// coherent reports whether the miss is a coherent read miss (the
	// directory had to obtain the data from another node's dirty copy, or
	// the block was last written by a different node). The paper's TSE
	// triggers only on these.
	coherent bool
	// producer is the node that wrote the value being read
	// (InvalidNode when the value comes from untouched memory).
	producer mem.NodeID
}

// read processes a read request from a node that missed in its private
// cache hierarchy and updates sharing state.
func (e *dirEntry) read(node mem.NodeID) readResult {
	res := readResult{producer: e.lastWriter}
	switch e.state {
	case modified:
		res.coherent = e.owner != node
		// Owner's copy is downgraded to shared.
		e.sharers.Add(e.owner)
		e.sharers.Add(node)
		e.owner = mem.InvalidNode
		e.state = shared
	case shared, uncached:
		// Coherent when the last value was produced by another node and
		// this node is not already recorded as holding the block
		// (producer->consumer communication).
		res.coherent = e.lastWriter != mem.InvalidNode && e.lastWriter != node && !e.sharers.Contains(node)
		e.sharers.Add(node)
		e.state = shared
	}
	return res
}

// writeResult describes the directory's response to a write (or upgrade)
// request.
type writeResult struct {
	// invalidated is the set of nodes whose copies were invalidated.
	invalidated SharerSet
	// previousOwner is the node whose dirty copy was taken (InvalidNode
	// if none).
	previousOwner mem.NodeID
	// coherent reports whether the write required invalidating or
	// fetching another node's copy.
	coherent bool
}

// write processes a write request (including upgrades from shared) and
// updates sharing state.
func (e *dirEntry) write(node mem.NodeID) writeResult {
	res := writeResult{previousOwner: mem.InvalidNode}
	switch e.state {
	case modified:
		if e.owner != node {
			res.previousOwner = e.owner
			res.invalidated.Add(e.owner)
		}
	case shared:
		res.invalidated = e.sharers &^ (1 << uint(node))
	}
	res.coherent = res.invalidated != 0
	e.sharers.Clear()
	e.state = modified
	e.owner = node
	e.lastWriter = node
	return res
}
