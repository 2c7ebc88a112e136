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

// pointerTable holds the directory's CMOB pointers for every consumed
// block. Its state is flat: one map from block to a dense slot, and one
// slab with per pointer slots for each slot, newest first; the valid
// pointers are a prefix of a slot. Nothing is evicted.
type pointerTable struct {
	per   int
	index map[mem.BlockAddr]int32
	ptrs  []CMOBPointer
}

func newPointerTable(per int) pointerTable {
	return pointerTable{per: per, index: make(map[mem.BlockAddr]int32)}
}

// slot returns a block's pointer slots, allocating empty ones on the
// block's first reference. The slice aliases the slab: it is valid until the
// next call, which may move the slab.
func (t *pointerTable) slot(b mem.BlockAddr) []CMOBPointer {
	i, ok := t.index[b]
	if !ok {
		i = int32(len(t.ptrs) / t.per)
		t.index[b] = i
		t.ptrs = append(t.ptrs, make([]CMOBPointer, t.per)...)
	}
	return t.ptrs[int(i)*t.per : (int(i)+1)*t.per]
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
