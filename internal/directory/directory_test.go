package directory

import (
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
	nodes := s.Nodes()
	if len(nodes) != 2 || nodes[0] != 3 || nodes[1] != 7 {
		t.Fatalf("Nodes = %v, want [3 7]", nodes)
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestHomeNodeInterleaving(t *testing.T) {
	d := newDir(t)
	seen := map[mem.NodeID]int{}
	for i := 0; i < 64; i++ {
		h := d.HomeNode(mem.BlockAddr(i * 64))
		if h < 0 || int(h) >= 4 {
			t.Fatalf("home node %d out of range", h)
		}
		seen[h]++
	}
	for n, count := range seen {
		if count != 16 {
			t.Fatalf("node %d homes %d blocks, want 16", n, count)
		}
	}
}

func TestProducerConsumerReadIsCoherent(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x1000)
	// Node 0 writes, node 1 reads: classic producer->consumer.
	wr := d.Write(0, b)
	if wr.Coherent {
		t.Fatal("first write to uncached block should not be coherent")
	}
	rd := d.Read(1, b)
	if !rd.Coherent {
		t.Fatal("read of another node's dirty block must be coherent")
	}
	if rd.Producer != 0 || rd.Owner != 0 {
		t.Fatalf("read result %+v, want producer/owner 0", rd)
	}
	// Re-read by the same node after it holds the block: not coherent.
	rd = d.Read(1, b)
	if rd.Coherent {
		t.Fatal("second read by the same sharer should not be coherent")
	}
	// Another node reads the now-shared block written by node 0: coherent
	// (producer->consumer communication).
	rd = d.Read(2, b)
	if !rd.Coherent || rd.Producer != 0 {
		t.Fatalf("read by new sharer = %+v, want coherent with producer 0", rd)
	}
	// The producer reading its own data back is not a consumption.
	rd = d.Read(0, b)
	if rd.Coherent {
		t.Fatal("producer re-reading its own block should not be coherent")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x2000)
	d.Write(0, b)
	d.Read(1, b)
	d.Read(2, b)
	wr := d.Write(3, b)
	if !wr.Coherent {
		t.Fatal("write to shared block must be coherent")
	}
	if len(wr.Invalidated) != 3 {
		t.Fatalf("invalidated %v, want 3 nodes", wr.Invalidated)
	}
	e := d.Lookup(b)
	if e.State != Modified || e.Owner != 3 || e.LastWriter != 3 {
		t.Fatalf("entry after write = %+v", e)
	}
	// Writer writes again: silent, no invalidations.
	wr = d.Write(3, b)
	if wr.Coherent || len(wr.Invalidated) != 0 {
		t.Fatalf("owner rewrite = %+v, want silent", wr)
	}
}

func TestWriteTakesDirtyCopy(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x3000)
	d.Write(0, b)
	wr := d.Write(1, b)
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
	// Read returns a copy of the pointers.
	rd := d.Read(1, b)
	if len(rd.CMOBPtrs) != 2 {
		t.Fatalf("Read CMOBPtrs = %+v", rd.CMOBPtrs)
	}
}

func TestPointerStorageBits(t *testing.T) {
	d := New(Config{Nodes: 16, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
	// 2 * (log2(16) + log2(1M)) = 2 * (4 + 20) = 48 bits.
	if got := d.PointerStorageBits(1 << 20); got != 48 {
		t.Fatalf("PointerStorageBits = %d, want 48", got)
	}
	if d.PointerStorageBits(0) != 0 {
		t.Fatal("zero CMOB entries should have zero overhead")
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
				d.Write(node, block)
			} else {
				d.Read(node, block)
			}
			e := d.Lookup(block)
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

func TestReset(t *testing.T) {
	d := newDir(t)
	d.Write(0, 0x40)
	if d.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", d.Entries())
	}
	d.Reset()
	if d.Entries() != 0 {
		t.Fatal("Reset should clear entries")
	}
}
