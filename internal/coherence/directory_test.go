package coherence

import (
	"testing"
	"testing/quick"

	"tsm/internal/mem"
)

// The MSI directory's own cases; engine_test.go and oracle_test.go check
// the classification built on it.

func newDir(t *testing.T) *directory {
	t.Helper()
	return newDirectory(mem.DefaultGeometry())
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
	wr := d.entry(b).write(0)
	if wr.coherent {
		t.Fatal("first write to uncached block should not be coherent")
	}
	rd := d.entry(b).read(1)
	if !rd.coherent {
		t.Fatal("read of another node's dirty block must be coherent")
	}
	if e := d.entry(b); rd.producer != 0 || !e.holds(0) || e.state != shared {
		t.Fatalf("read result %+v, entry %+v: want producer 0, owner downgraded to a sharer", rd, *e)
	}
	// Re-read by the same node after it holds the block: not coherent.
	rd = d.entry(b).read(1)
	if rd.coherent {
		t.Fatal("second read by the same sharer should not be coherent")
	}
	// Another node reads the now-shared block written by node 0: coherent
	// (producer->consumer communication).
	rd = d.entry(b).read(2)
	if !rd.coherent || rd.producer != 0 {
		t.Fatalf("read by new sharer = %+v, want coherent with producer 0", rd)
	}
	// The producer reading its own data back is not a consumption.
	rd = d.entry(b).read(0)
	if rd.coherent {
		t.Fatal("producer re-reading its own block should not be coherent")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x2000)
	d.entry(b).write(0)
	d.entry(b).read(1)
	d.entry(b).read(2)
	wr := d.entry(b).write(3)
	if !wr.coherent {
		t.Fatal("write to shared block must be coherent")
	}
	if wr.invalidated != 0b0111 {
		t.Fatalf("invalidated %b, want nodes 0, 1 and 2", wr.invalidated)
	}
	e := d.entry(b)
	if e.state != modified || e.owner != 3 || e.lastWriter != 3 {
		t.Fatalf("entry after write = %+v", e)
	}
	// Writer writes again: silent, no invalidations.
	wr = d.entry(b).write(3)
	if wr.coherent || wr.invalidated.Count() != 0 {
		t.Fatalf("owner rewrite = %+v, want silent", wr)
	}
}

func TestWriteTakesDirtyCopy(t *testing.T) {
	d := newDir(t)
	b := mem.BlockAddr(0x3000)
	d.entry(b).write(0)
	wr := d.entry(b).write(1)
	if !wr.coherent || wr.previousOwner != 0 {
		t.Fatalf("write over dirty copy = %+v, want coherent with previous owner 0", wr)
	}
}

func TestDirectoryInvariants(t *testing.T) {
	d := newDir(t)
	// Property: after any sequence of reads/writes, a modified entry has
	// exactly zero sharers recorded as such, and shared entries have at
	// least one sharer.
	f := func(ops []uint16) bool {
		for _, op := range ops {
			node := mem.NodeID(op % 4)
			block := mem.BlockAddr(uint64(op%32) * 64)
			if op&0x8000 != 0 {
				d.entry(block).write(node)
			} else {
				d.entry(block).read(node)
			}
			e := d.entry(block)
			switch e.state {
			case modified:
				if e.owner == mem.InvalidNode {
					return false
				}
			case shared:
				if e.sharers.Count() == 0 {
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
	if uncached.String() != "uncached" || shared.String() != "shared" || modified.String() != "modified" {
		t.Fatal("unexpected state strings")
	}
	if blockState(7).String() == "" {
		t.Fatal("unknown state should have a string")
	}
}

// TestHolds: a node holds a block when it is a sharer or the owner of the
// dirty copy, and a write leaves only the writer holding it.
func TestHolds(t *testing.T) {
	d := newDir(t)
	e := d.entry(0x6000)
	if e.holds(0) {
		t.Fatal("uncached block held")
	}
	e.write(0)
	if !e.holds(0) || e.holds(1) {
		t.Fatalf("after write by 0: %+v", *e)
	}
	e.read(1)
	if !e.holds(0) || !e.holds(1) || e.holds(2) {
		t.Fatalf("after read by 1: %+v", *e)
	}
	e.write(2)
	if e.holds(0) || e.holds(1) || !e.holds(2) {
		t.Fatalf("after write by 2: %+v", *e)
	}
}
