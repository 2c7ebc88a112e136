package prefetch

import (
	"testing"
)

// repeatSequence replays an irregular but repetitive consumption sequence at
// one node; address correlation should capture it on the second pass.
func repeatSequence(t *testing.T, g *GHB, seq []int, passes int) (covered, total int) {
	t.Helper()
	for p := 0; p < passes; p++ {
		for _, b := range seq {
			total++
			if g.Consumption(cons(0, b)) {
				covered++
			}
		}
	}
	return covered, total
}

func TestGHBAddressCorrelationCoversRepeats(t *testing.T) {
	g := NewGHB(GAC, 1)
	seq := []int{5, 90, 17, 300, 41, 1000, 8, 77, 512, 3, 220, 19, 55, 602, 31, 7}
	covered, _ := repeatSequence(t, g, seq, 3)
	// First pass cannot be covered; later passes mostly should be.
	if covered < len(seq) {
		t.Fatalf("G/AC covered %d, want at least one full pass (%d)", covered, len(seq))
	}
}

func TestGHBAddressCorrelationHistoryLimit(t *testing.T) {
	g := NewGHB(GAC, 1)
	// A repeating sequence longer than the history buffer: by the time an
	// address recurs its previous occurrence has been overwritten, so
	// coverage stays near zero. This is the mechanism that makes GHB fall
	// short of TSE in Figure 12.
	seq := make([]int, HistoryEntries+HistoryEntries/4)
	for i := range seq {
		seq[i] = (i * 37) % 1000
	}
	covered, _ := repeatSequence(t, g, seq, 3)
	if covered > 20 {
		t.Fatalf("G/AC with tiny history covered %d, want near zero", covered)
	}
}

func TestGHBDistanceCorrelationCoversStridedPattern(t *testing.T) {
	g := NewGHB(GDC, 1)
	covered := 0
	total := 0
	// A repeating delta pattern (+1,+1,+5) — distance correlation should
	// learn it even though the absolute addresses never repeat.
	addr := 0
	deltas := []int{1, 1, 5}
	for i := 0; i < 300; i++ {
		addr += deltas[i%len(deltas)]
		total++
		if g.Consumption(cons(0, addr)) {
			covered++
		}
	}
	if covered < total/3 {
		t.Fatalf("G/DC covered %d of %d on a repeating delta pattern", covered, total)
	}
}

func TestGHBWriteInvalidates(t *testing.T) {
	g := NewGHB(GAC, 1)
	seq := []int{1, 2, 3, 4, 5, 6, 7, 8}
	repeatSequence(t, g, seq, 1)
	// Start the second pass: consuming 1 prefetches 2..8.
	g.Consumption(cons(0, 1))
	g.Write(write(1, 2))
	if g.Consumption(cons(0, 2)) {
		t.Fatal("written block must not be covered")
	}
}

func TestGHBPerNodeIsolation(t *testing.T) {
	g := NewGHB(GAC, 2)
	seq := []int{9, 8, 7, 6, 5}
	repeatSequence(t, g, seq, 2)
	// Node 1 consuming the same sequence gets no benefit from node 0's
	// history — the key limitation TSE lifts.
	covered := 0
	for _, b := range seq {
		if g.Consumption(cons(1, b)) {
			covered++
		}
	}
	if covered != 0 {
		t.Fatalf("node 1 covered %d from node 0's history, want 0", covered)
	}
}

func TestGHBFinishAccounting(t *testing.T) {
	g := NewGHB(GAC, 1)
	seq := []int{1, 2, 3, 4, 5}
	repeatSequence(t, g, seq, 2)
	fetched, discards := g.Finish()
	if fetched == 0 {
		t.Fatal("GHB should have fetched blocks on the repeat pass")
	}
	if discards > fetched {
		t.Fatal("discards cannot exceed fetches")
	}
}

func TestGHBNamesAndDefaults(t *testing.T) {
	if NewGHB(GAC, 1).Name() != "GHB G/AC" {
		t.Fatal("unexpected G/AC name")
	}
	if NewGHB(GDC, 1).Name() != "GHB G/DC" {
		t.Fatal("unexpected G/DC name")
	}
	if GAC.String() != "G/AC" || GDC.String() != "G/DC" {
		t.Fatal("unexpected method strings")
	}
	g := NewGHB(GAC, 1)
	if got := g.nodes[0].buffer.Capacity(); got != BufferEntries {
		t.Fatalf("buffer capacity = %d, want %d", got, BufferEntries)
	}
	g.Consumption(cons(0, 1))
	g.Consumption(cons(3, 2)) // out-of-range node folds to node 0
	if _, d := g.Finish(); d > 0 {
		// nothing fetched yet, so no discards expected
		t.Fatal("unexpected discards")
	}
}
