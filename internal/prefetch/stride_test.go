package prefetch

import (
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

func cons(node int, block int) trace.Event {
	return trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(node), Block: mem.BlockAddr(block * 64)}
}

func write(node int, block int) trace.Event {
	return trace.Event{Kind: trace.KindWrite, Node: mem.NodeID(node), Block: mem.BlockAddr(block * 64)}
}

func TestStrideCoversStridedStream(t *testing.T) {
	s := NewStride(1)
	covered := 0
	// Unit-stride consumption stream: after the stride is confirmed on the
	// third access, subsequent consumptions should hit.
	for i := 0; i < 64; i++ {
		if s.Consumption(cons(0, i)) {
			covered++
		}
	}
	if covered < 55 {
		t.Fatalf("covered %d of 64 unit-stride consumptions, want most", covered)
	}
	fetched, discards := s.Finish()
	if fetched == 0 {
		t.Fatal("stride prefetcher should have fetched blocks")
	}
	if discards > fetched {
		t.Fatal("discards cannot exceed fetches")
	}
}

func TestStrideLargeStride(t *testing.T) {
	s := NewStride(1)
	covered := 0
	for i := 0; i < 64; i++ {
		if s.Consumption(cons(0, i*7)) { // stride of 7 blocks
			covered++
		}
	}
	if covered < 55 {
		t.Fatalf("covered %d of 64 with stride 7, want most", covered)
	}
}

func TestStrideRarelyFiresOnIrregular(t *testing.T) {
	s := NewStride(1)
	// A pointer-chasing-like irregular sequence (no repeated stride).
	seq := []int{5, 90, 17, 300, 41, 1000, 8, 77, 512, 3, 220, 19}
	covered := 0
	for _, b := range seq {
		if s.Consumption(cons(0, b)) {
			covered++
		}
	}
	fetched, _ := s.Finish()
	if covered != 0 {
		t.Fatalf("irregular sequence covered %d, want 0", covered)
	}
	if fetched != 0 {
		t.Fatalf("irregular sequence fetched %d blocks, want 0 (stride never confirmed)", fetched)
	}
}

func TestStrideWriteInvalidates(t *testing.T) {
	s := NewStride(1)
	for i := 0; i < 10; i++ {
		s.Consumption(cons(0, i))
	}
	// Block 10 should currently be prefetched; a write drops it.
	s.Write(write(1, 10))
	if s.Consumption(cons(0, 10)) {
		t.Fatal("written block must not be covered")
	}
}

func TestStridePerNodeIsolation(t *testing.T) {
	s := NewStride(2)
	// Node 0 trains a unit stride; node 1 must not benefit.
	for i := 0; i < 16; i++ {
		s.Consumption(cons(0, i))
	}
	if s.Consumption(cons(1, 16)) {
		t.Fatal("node 1 should not hit on node 0's prefetches")
	}
}

func TestStrideOutOfRangeNodeDoesNotPanic(t *testing.T) {
	s := NewStride(1)
	// Events from unexpected node ids are folded onto node 0 rather than
	// panicking; the comparison harness guards ranges upstream.
	s.Consumption(cons(5, 1))
	s.Consumption(cons(5, 2))
}

func TestStrideName(t *testing.T) {
	if NewStride(1).Name() != "Stride" {
		t.Fatal("unexpected name")
	}
}

func TestStrideDefaults(t *testing.T) {
	s := NewStride(2)
	// The buffer is the 32-entry one, never an unlimited SVB.
	for _, n := range s.nodes {
		if got := n.buffer.Capacity(); got != BufferEntries {
			t.Fatalf("buffer capacity = %d, want %d", got, BufferEntries)
		}
	}
}
