package directory

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tsm/internal/mem"
)

func newDir(t *testing.T) *Directory {
	t.Helper()
	return New(Config{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
}

func TestConfigValidate(t *testing.T) {
	for _, n := range []int{1, 16, mem.MaxNodes} {
		if err := (Config{Nodes: n, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2}).Validate(); err != nil {
			t.Fatalf("%d-node config invalid: %v", n, err)
		}
	}
	bad := []Config{
		{Nodes: 0, Geometry: mem.DefaultGeometry()},
		{Nodes: mem.MaxNodes + 1, Geometry: mem.DefaultGeometry()},
		{Nodes: 4, Geometry: mem.Geometry{BlockSize: 60}},
		{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestSharerSet(t *testing.T) {
	var s SharerSet
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if !s.Contains(3) || !s.Contains(7) || s.Contains(1) {
		t.Fatal("Contains wrong")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestProducerConsumerReadIsCoherent(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x1000)
	// Node 0 writes, node 1 reads: classic producer->consumer.
	wr := d.Entry(b).Write(0)
	if wr.Coherent {
		t.Fatal("first write to uncached block should not be coherent")
	}
	rd := d.Entry(b).Read(1)
	if !rd.Coherent {
		t.Fatal("read of another node's dirty block must be coherent")
	}
	if e := d.Entry(b); rd.Producer != 0 || !e.Holds(0) || e.State != Shared {
		t.Fatalf("read result %+v, entry %+v: want producer 0, owner downgraded to a sharer", rd, *e)
	}
	// Re-read by the same node after it holds the block: not coherent.
	rd = d.Entry(b).Read(1)
	if rd.Coherent {
		t.Fatal("second read by the same sharer should not be coherent")
	}
	// Another node reads the now-shared block written by node 0: coherent
	// (producer->consumer communication).
	rd = d.Entry(b).Read(2)
	if !rd.Coherent || rd.Producer != 0 {
		t.Fatalf("read by new sharer = %+v, want coherent with producer 0", rd)
	}
	// The producer reading its own data back is not a consumption.
	rd = d.Entry(b).Read(0)
	if rd.Coherent {
		t.Fatal("producer re-reading its own block should not be coherent")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x2000)
	d.Entry(b).Write(0)
	d.Entry(b).Read(1)
	d.Entry(b).Read(2)
	wr := d.Entry(b).Write(3)
	if !wr.Coherent {
		t.Fatal("write to shared block must be coherent")
	}
	if wr.Invalidated != 0b0111 {
		t.Fatalf("invalidated %b, want nodes 0, 1 and 2", wr.Invalidated)
	}
	e := d.Entry(b)
	if e.State != Modified || e.Owner != 3 || e.LastWriter != 3 {
		t.Fatalf("entry after write = %+v", e)
	}
	// Writer writes again: silent, no invalidations.
	wr = d.Entry(b).Write(3)
	if wr.Coherent || wr.Invalidated.Count() != 0 {
		t.Fatalf("owner rewrite = %+v, want silent", wr)
	}
}

func TestWriteTakesDirtyCopy(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x3000)
	d.Entry(b).Write(0)
	wr := d.Entry(b).Write(1)
	if !wr.Coherent || wr.PreviousOwner != 0 {
		t.Fatalf("write over dirty copy = %+v, want coherent with previous owner 0", wr)
	}
}

func TestCMOBPointers(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x5000)
	if got := d.CMOBPointers(b); got != nil {
		t.Fatal("pointers for untouched block should be nil")
	}
	d.RecordCMOBPointer(b, CMOBPointer{Node: 1, Offset: 10})
	d.RecordCMOBPointer(b, CMOBPointer{Node: 2, Offset: 20})
	ptrs := d.CMOBPointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 2 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want newest (node 2) first", ptrs)
	}
	// Same node again: replaces its old pointer, still 2 entries.
	d.RecordCMOBPointer(b, CMOBPointer{Node: 1, Offset: 30})
	ptrs = d.CMOBPointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 1 || ptrs[0].Offset != 30 || ptrs[1].Node != 2 {
		t.Fatalf("pointers = %+v, want node1@30 then node2@20", ptrs)
	}
	// Third distinct node: oldest drops.
	d.RecordCMOBPointer(b, CMOBPointer{Node: 3, Offset: 40})
	ptrs = d.CMOBPointers(b)
	if len(ptrs) != 2 || ptrs[0].Node != 3 || ptrs[1].Node != 1 {
		t.Fatalf("pointers = %+v, want node3 then node1", ptrs)
	}
}

func TestZeroPointerConfig(t *testing.T) {
	d := New(Config{Nodes: 4, Geometry: mem.DefaultGeometry(), PointersPerEntry: 0})
	b := mem.BlockAddr(0x100)
	d.RecordCMOBPointer(b, CMOBPointer{Node: 1, Offset: 1})
	if len(d.CMOBPointers(b)) != 0 {
		t.Fatal("directory with 0 pointers per entry must not store pointers")
	}
}

func TestDirectoryInvariants(t *testing.T) {
	d := newDir(t)
	// Property: after any sequence of reads/writes, a Modified entry has
	// exactly zero sharers recorded as such, and Shared entries have at
	// least one sharer.
	f := func(ops []uint16) bool {
		for _, op := range ops {
			node := mem.NodeID(op % 4)
			block := mem.BlockAddr(uint64(op%32) * 64)
			if op&0x8000 != 0 {
				d.Entry(block).Write(node)
			} else {
				d.Entry(block).Read(node)
			}
			e := d.Entry(block)
			switch e.State {
			case Modified:
				if e.Owner == mem.InvalidNode {
					return false
				}
			case Shared:
				if e.Sharers.Count() == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	if Uncached.String() != "uncached" || Shared.String() != "shared" || Modified.String() != "modified" {
		t.Fatal("unexpected state strings")
	}
	if State(7).String() == "" {
		t.Fatal("unknown state should have a string")
	}
}

// TestHolds: a node holds a block when it is a sharer or the owner of the
// dirty copy, and a write leaves only the writer holding it.
func TestHolds(t *testing.T) {
	d := newDir(t)
	e := d.Entry(0x6000)
	if e.Holds(0) {
		t.Fatal("uncached block held")
	}
	e.Write(0)
	if !e.Holds(0) || e.Holds(1) {
		t.Fatalf("after write by 0: %+v", *e)
	}
	e.Read(1)
	if !e.Holds(0) || !e.Holds(1) || e.Holds(2) {
		t.Fatalf("after read by 1: %+v", *e)
	}
	e.Write(2)
	if e.Holds(0) || e.Holds(1) || !e.Holds(2) {
		t.Fatalf("after write by 2: %+v", *e)
	}
}

// refPointers is the naive pointer policy RecordCMOBPointer implements in
// place: prepend the new pointer, drop the same node's older pointer, and
// truncate to the per-entry limit.
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
// refPointers over random record sequences, interleaved with reads and
// writes that allocate entries holding no pointers.
func TestCMOBPointersMatchReference(t *testing.T) {
	const blocks, nodes = 12, 6
	for limit := 0; limit <= 4; limit++ {
		rng := rand.New(rand.NewSource(int64(limit) + 1))
		d := New(Config{Nodes: nodes, Geometry: mem.DefaultGeometry(), PointersPerEntry: limit})
		ref := map[mem.BlockAddr][]CMOBPointer{}
		for step := 0; step < 4000; step++ {
			b := mem.BlockAddr(rng.Intn(blocks) * 64)
			node := mem.NodeID(rng.Intn(nodes))
			switch rng.Intn(4) {
			case 0:
				d.Entry(b).Read(node)
			case 1:
				d.Entry(b).Write(node)
			default:
				ptr := CMOBPointer{Node: node, Offset: uint64(step)}
				d.RecordCMOBPointer(b, ptr)
				if limit > 0 {
					ref[b] = refPointers(ref[b], ptr, limit)
				}
			}
			for i := 0; i < blocks; i++ {
				blk := mem.BlockAddr(i * 64)
				got, want := d.CMOBPointers(blk), ref[blk]
				if len(got) != len(want) {
					t.Fatalf("limit %d step %d block %#x: pointers %+v, want %+v", limit, step, blk, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("limit %d step %d block %#x: pointers %+v, want %+v", limit, step, blk, got, want)
					}
				}
			}
		}
	}
}

// TestEntryWithoutPointers: entries that only reads and writes allocate hold
// no pointers and grow no pointer slab.
func TestEntryWithoutPointers(t *testing.T) {
	d := newDir(t)
	for i := 0; i < 100; i++ {
		b := mem.BlockAddr(i * 64)
		d.Entry(b).Write(mem.NodeID(i % 4))
		d.Entry(b).Read(mem.NodeID((i + 1) % 4))
		if ptrs := d.CMOBPointers(b); len(ptrs) != 0 {
			t.Fatalf("block %#x: pointers %+v, want none", b, ptrs)
		}
	}
	if len(d.ptrs) != 0 {
		t.Fatalf("pointer slab has %d slots, want 0", len(d.ptrs))
	}
	// Recording on the last entry grows the slab to cover it; the earlier
	// entries still hold no pointers.
	last := mem.BlockAddr(99 * 64)
	d.RecordCMOBPointer(last, CMOBPointer{Node: 1, Offset: 5})
	if ptrs := d.CMOBPointers(last); len(ptrs) != 1 || ptrs[0].Node != 1 || ptrs[0].Offset != 5 {
		t.Fatalf("pointers after record = %+v", ptrs)
	}
	if ptrs := d.CMOBPointers(0); len(ptrs) != 0 {
		t.Fatalf("block 0: pointers %+v, want none", ptrs)
	}
}

// TestDirectoryDoesNotAllocate: once a block's entry exists and the slab
// covers it, reads, writes, recording and returning its pointers allocate
// nothing.
func TestDirectoryDoesNotAllocate(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x7000)
	d.RecordCMOBPointer(b, CMOBPointer{Node: 0, Offset: 1})
	var off uint64
	allocs := testing.AllocsPerRun(100, func() {
		off++
		d.RecordCMOBPointer(b, CMOBPointer{Node: mem.NodeID(off % 4), Offset: off})
		if len(d.CMOBPointers(b)) != 2 {
			t.Fatal("want two pointers")
		}
		e := d.Entry(b)
		e.Write(mem.NodeID(off % 4))
		e.Read(mem.NodeID((off + 1) % 4))
		e.Read(mem.NodeID((off + 2) % 4))
	})
	if allocs != 0 {
		t.Fatalf("allocs per run = %v, want 0", allocs)
	}
}
