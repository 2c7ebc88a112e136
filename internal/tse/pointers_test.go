package tse

import (
	"math/rand"
	"slices"
	"testing"

	"tsm/internal/mem"
)

// slot interns a block and returns its pointer slots.
func (t *pointerTable) slot(b mem.BlockAddr) []CMOBPointer {
	id, _ := t.intern(b)
	return t.slots(id)
}

// record is the System's use of the table: look the block up once, then
// record the pointer into its slots.
func (t *pointerTable) record(b mem.BlockAddr, ptr CMOBPointer) {
	recordPointer(t.slot(b), ptr)
}

// pointers returns a block's valid pointers.
func (t *pointerTable) pointers(b mem.BlockAddr) []CMOBPointer {
	return validPointers(t.slot(b))
}

func TestCMOBPointers(t *testing.T) {
	tab := newPointerTable(2)
	b := mem.BlockAddr(0x5000)
	if got := tab.pointers(b); len(got) != 0 {
		t.Fatalf("pointers for untouched block = %+v, want none", got)
	}
	tab.record(b, CMOBPointer{Node: 1, Offset: 10})
	tab.record(b, CMOBPointer{Node: 2, Offset: 20})
	ptrs := tab.pointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 2 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want newest (node 2) first", ptrs)
	}
	// Same node again: replaces its old pointer, still 2 entries.
	tab.record(b, CMOBPointer{Node: 1, Offset: 30})
	ptrs = tab.pointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 1 || ptrs[0].Offset != 30 || ptrs[1].Node != 2 {
		t.Fatalf("pointers = %+v, want node1@30 then node2@20", ptrs)
	}
	// Third distinct node: oldest drops.
	tab.record(b, CMOBPointer{Node: 3, Offset: 40})
	ptrs = tab.pointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 3 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want node3 then node1", ptrs)
	}
}

// refPointers is the naive pointer policy recordPointer implements in
// place: prepend the new pointer, drop the same node's older pointer, and
// truncate to the per-block limit.
func refPointers(old []CMOBPointer, ptr CMOBPointer, limit int) []CMOBPointer {
	ptr.Valid = true
	out := []CMOBPointer{ptr}
	for _, p := range old {
		if p.Node != ptr.Node {
			out = append(out, p)
		}
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestCMOBPointersMatchReference checks the in-place pointer slab against
// refPointers over random record sequences, interleaved with lookups that
// allocate slots holding no pointers.
func TestCMOBPointersMatchReference(t *testing.T) {
	const blocks, nodes = 12, 6
	for limit := 1; limit <= 4; limit++ {
		rng := rand.New(rand.NewSource(int64(limit) + 1))
		tab := newPointerTable(limit)
		ref := map[mem.BlockAddr][]CMOBPointer{}
		for step := 0; step < 4000; step++ {
			b := mem.BlockAddr(rng.Intn(blocks) * 64)
			node := mem.NodeID(rng.Intn(nodes))
			if rng.Intn(2) == 0 {
				tab.slot(b)
			} else {
				ptr := CMOBPointer{Node: node, Offset: uint64(step)}
				tab.record(b, ptr)
				ref[b] = refPointers(ref[b], ptr, limit)
			}
			for i := 0; i < blocks; i++ {
				blk := mem.BlockAddr(i * 64)
				if got, want := tab.pointers(blk), ref[blk]; !slices.Equal(got, want) {
					t.Fatalf("limit %d step %d block %#x: pointers %+v, want %+v", limit, step, blk, got, want)
				}
			}
		}
	}
}

// TestPointerTablePrefix: over the same consumption sequence, the pointers
// a K-slot table keeps for each block are the first K of a 4-slot table's.
// A table that keeps fewer pointers is therefore a view of a larger one.
func TestPointerTablePrefix(t *testing.T) {
	const blocks, nodes, maxK = 40, 16, 4
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tabs := make([]pointerTable, maxK+1)
		for k := 1; k <= maxK; k++ {
			tabs[k] = newPointerTable(k)
		}
		for step := 0; step < 5000; step++ {
			b := mem.BlockAddr(rng.Intn(blocks) * 64)
			ptr := CMOBPointer{Node: mem.NodeID(rng.Intn(nodes)), Offset: uint64(step)}
			for k := 1; k <= maxK; k++ {
				tabs[k].record(b, ptr)
			}
			full := tabs[maxK].pointers(b)
			for k := 1; k < maxK; k++ {
				want := full[:min(k, len(full))]
				if got := tabs[k].pointers(b); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d block %#x: %d-slot pointers %+v, want prefix %+v of %+v",
						seed, step, b, k, got, want, full)
				}
			}
		}
	}
}

// TestPointerTableDoesNotAllocate: once a block has its slots, looking it
// up, reading its pointers and recording into it allocate nothing.
func TestPointerTableDoesNotAllocate(t *testing.T) {
	tab := newPointerTable(2)
	b := mem.BlockAddr(0x7000)
	tab.record(b, CMOBPointer{Node: 0, Offset: 1})
	var off uint64
	allocs := testing.AllocsPerRun(100, func() {
		off++
		slots := tab.slot(b)
		if len(validPointers(slots)) == 0 {
			t.Fatal("want pointers")
		}
		recordPointer(slots, CMOBPointer{Node: mem.NodeID(off % 4), Offset: off})
	})
	if allocs != 0 {
		t.Fatalf("allocs per run = %v, want 0", allocs)
	}
}
