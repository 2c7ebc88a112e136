package tse

import "tsm/internal/mem"

// CMOBPointer locates the most recent appearance of a block's address in
// some node's CMOB: the TSE's extension of a directory entry (Section 3.2).
type CMOBPointer struct {
	// Node is the node whose CMOB holds the entry.
	Node mem.NodeID
	// Offset is the absolute append index within that CMOB (monotonically
	// increasing; the CMOB maps it onto its circular storage).
	Offset uint64
	// Valid reports whether the pointer has been set.
	Valid bool
}

// BlockID is a System's dense name for a consumed block: the first block
// consumed gets 0, the next new one 1, and so on. Every per-block structure
// of the System (pointer slots, holder masks, CMOB entries, stream FIFOs and
// SVB positions) is indexed by it, so a consumption pays one hash probe, the
// one that finds the id. Ids are only ever compared for equality, so the
// model's results do not depend on which id a block gets.
type BlockID uint32

// pointerTable holds the directory's CMOB pointers for every consumed
// block, and names the blocks. Its state is flat: one map from block to its
// id, and one slab with per pointer slots for each id, newest first; the
// valid pointers are a prefix of a block's slots. Nothing is evicted.
type pointerTable struct {
	per   int
	index map[mem.BlockAddr]BlockID
	ptrs  []CMOBPointer
}

func newPointerTable(per int) pointerTable {
	return pointerTable{per: per, index: make(map[mem.BlockAddr]BlockID)}
}

// intern returns a block's id, assigning the next one, with empty pointer
// slots, on the block's first reference; fresh reports that it did.
func (t *pointerTable) intern(b mem.BlockAddr) (id BlockID, fresh bool) {
	id, ok := t.index[b]
	if !ok {
		id = BlockID(len(t.ptrs) / t.per)
		t.index[b] = id
		t.ptrs = append(t.ptrs, make([]CMOBPointer, t.per)...)
	}
	return id, !ok
}

// slots returns the pointer slots of an interned block. The slice aliases
// the slab: it is valid until the next intern, which may move the slab.
func (t *pointerTable) slots(id BlockID) []CMOBPointer {
	return t.ptrs[int(id)*t.per : (int(id)+1)*t.per]
}

// validPointers returns the prefix of slots holding valid pointers.
func validPointers(slots []CMOBPointer) []CMOBPointer {
	n := 0
	for n < len(slots) && slots[n].Valid {
		n++
	}
	return slots[:n]
}

// recordPointer stores ptr as the newest pointer of slots. A newer pointer
// from the same node replaces that node's older pointer rather than
// occupying an extra slot, so the retained pointers come from distinct
// recent consumers; when every slot holds another node's pointer, the oldest
// drops out.
func recordPointer(slots []CMOBPointer, ptr CMOBPointer) {
	// Shift the pointers ahead of the first slot that is invalid, holds
	// the same node, or is the last one.
	j := 0
	for j < len(slots)-1 && slots[j].Valid && slots[j].Node != ptr.Node {
		j++
	}
	copy(slots[1:j+1], slots[:j])
	ptr.Valid = true
	slots[0] = ptr
}
