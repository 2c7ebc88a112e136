package config

import (
	"testing"
	"testing/quick"

	"tsm/internal/mem"
)

func TestDefaultSystemValid(t *testing.T) {
	c := DefaultSystem()
	if err := c.Validate(); err != nil {
		t.Fatalf("default system invalid: %v", err)
	}
	if c.Nodes != 16 || c.ClockGHz != 4.0 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	c := DefaultSystem()
	c.Nodes = 0
	if c.Validate() == nil {
		t.Fatal("zero nodes should fail")
	}
	c = DefaultSystem()
	c.ClockGHz = 0
	if c.Validate() == nil {
		t.Fatal("zero clock should fail")
	}
	c = DefaultSystem()
	c.L2.Ways = 0
	if c.Validate() == nil {
		t.Fatal("bad L2 should fail")
	}
}

func TestLatencyDerivations(t *testing.T) {
	c := DefaultSystem()
	// 60 ns at 4 GHz = 240 cycles.
	if got := c.MemoryLatencyCycles(); got != 240 {
		t.Fatalf("MemoryLatencyCycles = %d, want 240", got)
	}
	// 25 ns per hop at 4 GHz = 100 cycles.
	if got := c.HopLatencyCycles(); got != 100 {
		t.Fatalf("HopLatencyCycles = %d, want 100", got)
	}
	if c.SVBHitLatencyCycles() != c.L2LatencyCycles {
		t.Fatal("SVB hit should cost an L2-like latency")
	}
	// A 3-hop miss must exceed the local L2 latency by a wide margin.
	if c.ThreeHopLatencyCycles() < 10*c.L2LatencyCycles {
		t.Fatalf("3-hop latency %d suspiciously small", c.ThreeHopLatencyCycles())
	}
	if c.NsToCycles(1) != 4 {
		t.Fatalf("NsToCycles(1) = %d, want 4", c.NsToCycles(1))
	}
}

func TestTables(t *testing.T) {
	c := DefaultSystem()
	t1 := c.Table1()
	if len(t1) < 5 {
		t.Fatalf("Table1 has %d rows", len(t1))
	}
	for _, row := range t1 {
		if row[0] == "" || row[1] == "" {
			t.Fatal("Table1 row has empty cells")
		}
	}
	t2 := Table2()
	if len(t2) != 10 {
		t.Fatalf("Table2 has %d rows, want 10 (paper suite + extended matrix)", len(t2))
	}
}

func TestCacheValidate(t *testing.T) {
	good := []Cache{
		{Name: "test", SizeBytes: 1024, Ways: 2, BlockSize: 64}, // 8 sets
		{Name: "L1D", SizeBytes: 64 * 1024, Ways: 2, BlockSize: 64},
		{Name: "L2", SizeBytes: 8 << 20, Ways: 8, BlockSize: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Cache{
		{},
		{SizeBytes: 1024, Ways: 2, BlockSize: 63},
		{SizeBytes: 100, Ways: 2, BlockSize: 64},
		{SizeBytes: 64 * 3, Ways: 1, BlockSize: 64}, // 3 sets, not power of two
		{SizeBytes: -1, Ways: 1, BlockSize: 64},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestDefaultTorus(t *testing.T) {
	tor := DefaultSystem().Torus
	if err := tor.Validate(); err != nil {
		t.Fatalf("default torus invalid: %v", err)
	}
	if tor.Width*tor.Height != 16 {
		t.Fatalf("default torus is %dx%d, want 16 nodes", tor.Width, tor.Height)
	}
}

func TestTorusValidate(t *testing.T) {
	bad := []Torus{
		{Width: 0, Height: 4, HopLatencyCycles: 1},
		{Width: 4, Height: -1, HopLatencyCycles: 1},
		{Width: 4, Height: 4, HopLatencyCycles: 0},
	}
	for _, tor := range bad {
		if err := tor.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", tor)
		}
		c := DefaultSystem()
		c.Torus = tor
		if c.Validate() == nil {
			t.Errorf("system with torus %+v should fail", tor)
		}
	}
}

func TestHops(t *testing.T) {
	tor := Torus{Width: 4, Height: 4, HopLatencyCycles: 100}
	cases := []struct {
		from, to mem.NodeID
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wraparound in x
		{0, 12, 1}, // wraparound in y
		{0, 15, 2}, // (3,3): 1+1 with wraparound
		{0, 5, 2},
		{0, 10, 4}, // (2,2): 2+2
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := tor.hops(c.from, c.to); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.from, c.to, got, c.want)
		}
	}
}

func TestHopsSymmetricAndBounded(t *testing.T) {
	tor := Torus{Width: 4, Height: 4, HopLatencyCycles: 100}
	f := func(a, b uint8) bool {
		from := mem.NodeID(int(a) % 16)
		to := mem.NodeID(int(b) % 16)
		h := tor.hops(from, to)
		if h != tor.hops(to, from) {
			return false
		}
		if h < 0 || h > 4 { // max 2+2 in a 4x4 torus
			return false
		}
		return (h == 0) == (from == to)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAverageHops(t *testing.T) {
	tor := Torus{Width: 4, Height: 4, HopLatencyCycles: 100}
	avg := tor.averageHops()
	// For a 4x4 torus the mean distance over distinct pairs is 32/15.
	want := 32.0 / 15.0
	if diff := avg - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("averageHops = %v, want %v", avg, want)
	}
	single := Torus{Width: 1, Height: 1, HopLatencyCycles: 1}
	if single.averageHops() != 0 {
		t.Fatal("single-node torus should have zero average hops")
	}
}

func TestBandwidthGBs(t *testing.T) {
	// 1e9 bytes over 1e9 cycles at 1 GHz = 1 second -> 0.5 GB/s after
	// bisection fraction.
	got := BandwidthGBs(1e9, 1e9, 1.0)
	if diff := got - 0.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("BandwidthGBs = %v, want 0.5", got)
	}
	if BandwidthGBs(100, 0, 1.0) != 0 {
		t.Fatal("zero cycles should yield zero bandwidth")
	}
}
