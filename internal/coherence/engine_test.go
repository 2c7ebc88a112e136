package coherence

import (
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

func smallEngine() *Engine {
	return New(Config{Nodes: 4, Geometry: mem.DefaultGeometry()})
}

func TestConfigValidate(t *testing.T) {
	for _, n := range []int{1, 16, mem.MaxNodes} {
		if err := (Config{Nodes: n, Geometry: mem.DefaultGeometry()}).Validate(); err != nil {
			t.Fatalf("%d-node config invalid: %v", n, err)
		}
	}
	bad := []Config{
		{Nodes: 0, Geometry: mem.DefaultGeometry()},
		{Nodes: -1, Geometry: mem.DefaultGeometry()},
		{Nodes: mem.MaxNodes + 1, Geometry: mem.DefaultGeometry()},
		{Nodes: 4, Geometry: mem.Geometry{BlockSize: 3}},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
}

func TestProducerConsumerClassification(t *testing.T) {
	e := smallEngine()
	var tr trace.Trace

	// Node 0 writes block 0x1000; node 1 then reads it.
	r := e.AccessEmit(mem.Access{Node: 0, Addr: 0x1000, Type: mem.Write}, tr.Append)
	if r.Class != WriteMiss {
		t.Fatalf("first write class = %v, want WriteMiss", r.Class)
	}
	r = e.AccessEmit(mem.Access{Node: 1, Addr: 0x1000, Type: mem.Read}, tr.Append)
	if r.Class != Consumption || r.Producer != 0 {
		t.Fatalf("consumer read = %+v, want Consumption from node 0", r)
	}
	// Node 1 reads again: hit.
	r = e.AccessEmit(mem.Access{Node: 1, Addr: 0x1008, Type: mem.Read}, tr.Append)
	if r.Class != Hit {
		t.Fatalf("re-read class = %v, want Hit", r.Class)
	}
	// Node 0 reads its own data back: hit (it still owns a copy).
	r = e.AccessEmit(mem.Access{Node: 0, Addr: 0x1000, Type: mem.Read}, tr.Append)
	if r.Class != Hit {
		t.Fatalf("producer read class = %v, want Hit", r.Class)
	}
	// Trace should contain one consumption and one write.
	counts := tr.CountByKind()
	if counts[trace.KindConsumption] != 1 || counts[trace.KindWrite] != 1 {
		t.Fatalf("trace counts = %+v", counts)
	}
	st := e.Stats()
	if st.Consumptions != 1 || st.WriteMisses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestColdReadIsPrivateMiss(t *testing.T) {
	e := smallEngine()
	var tr trace.Trace
	r := e.AccessEmit(mem.Access{Node: 2, Addr: 0x9000, Type: mem.Read}, tr.Append)
	if r.Class != PrivateMiss {
		t.Fatalf("cold read = %v, want PrivateMiss", r.Class)
	}
	if tr.CountByKind()[trace.KindReadMiss] != 1 {
		t.Fatal("cold read should emit a KindReadMiss event")
	}
}

func TestWriteInvalidatesReaders(t *testing.T) {
	e := smallEngine()
	e.AccessEmit(mem.Access{Node: 0, Addr: 0x2000, Type: mem.Write}, nil)
	e.AccessEmit(mem.Access{Node: 1, Addr: 0x2000, Type: mem.Read}, nil)
	e.AccessEmit(mem.Access{Node: 2, Addr: 0x2000, Type: mem.Read}, nil)
	r := e.AccessEmit(mem.Access{Node: 3, Addr: 0x2000, Type: mem.Write}, nil)
	if r.Class != WriteMiss || r.Invalidated.Count() != 3 {
		t.Fatalf("write over shared = %+v, want 3 invalidations", r)
	}
	// Node 1's next read must again be a consumption (its copy is gone and
	// node 3 produced a new value).
	r = e.AccessEmit(mem.Access{Node: 1, Addr: 0x2000, Type: mem.Read}, nil)
	if r.Class != Consumption || r.Producer != 3 {
		t.Fatalf("read after invalidation = %+v, want Consumption from node 3", r)
	}
}

func TestWriterWriteHit(t *testing.T) {
	e := smallEngine()
	e.AccessEmit(mem.Access{Node: 0, Addr: 0x3000, Type: mem.Write}, nil)
	r := e.AccessEmit(mem.Access{Node: 0, Addr: 0x3010, Type: mem.Write}, nil)
	if r.Class != WriteHit {
		t.Fatalf("owner rewrite = %v, want WriteHit", r.Class)
	}
}

func TestSpinExcluded(t *testing.T) {
	e := smallEngine()
	var tr trace.Trace
	e.AccessEmit(mem.Access{Node: 0, Addr: 0x4000, Type: mem.Write}, tr.Append)
	r := e.AccessEmit(mem.Access{Node: 1, Addr: 0x4000, Type: mem.Read, Spin: true}, tr.Append)
	if r.Class != SpinMiss {
		t.Fatalf("spin read = %v, want SpinMiss", r.Class)
	}
	if tr.ConsumptionCount() != 0 {
		t.Fatal("spin misses must not appear as consumptions in the trace")
	}
	if e.Stats().SpinMisses != 1 {
		t.Fatalf("stats = %+v, want 1 spin miss", e.Stats())
	}
}

func TestAtomicRMWBehavesAsWrite(t *testing.T) {
	e := smallEngine()
	e.AccessEmit(mem.Access{Node: 0, Addr: 0x5000, Type: mem.Write}, nil)
	e.AccessEmit(mem.Access{Node: 1, Addr: 0x5000, Type: mem.Read}, nil)
	r := e.AccessEmit(mem.Access{Node: 2, Addr: 0x5000, Type: mem.AtomicRMW}, nil)
	if r.Class != WriteMiss {
		t.Fatalf("rmw = %v, want WriteMiss", r.Class)
	}
	if r.Invalidated.Count() == 0 {
		t.Fatal("rmw should invalidate sharers")
	}
}

// TestSelfRereadsAreNotConsumptions: re-reads of a node's own data hit its
// infinite private cache; no other node produced the data, so none of them
// is a consumption.
func TestSelfRereadsAreNotConsumptions(t *testing.T) {
	e := smallEngine()
	for i := 0; i < 256; i++ {
		e.AccessEmit(mem.Access{Node: 0, Addr: mem.Addr(i * 64), Type: mem.Write}, nil)
	}
	var tr trace.Trace
	for i := 0; i < 256; i++ {
		if r := e.AccessEmit(mem.Access{Node: 0, Addr: mem.Addr(i * 64), Type: mem.Read}, tr.Append); r.Class != Hit {
			t.Fatalf("self re-read %d = %v, want Hit", i, r.Class)
		}
	}
	if tr.ConsumptionCount() != 0 {
		t.Fatalf("self re-reads produced %d consumptions, want 0", tr.ConsumptionCount())
	}
}

func TestRunProducesOrderedTrace(t *testing.T) {
	e := smallEngine()
	var accesses []mem.Access
	for i := 0; i < 16; i++ {
		accesses = append(accesses, mem.Access{Node: 0, Addr: mem.Addr(i * 64), Type: mem.Write})
	}
	for i := 0; i < 16; i++ {
		accesses = append(accesses, mem.Access{Node: 1, Addr: mem.Addr(i * 64), Type: mem.Read})
	}
	tr, err := e.RunFrom(func(yield func(mem.Access) error) error {
		for _, a := range accesses {
			if err := yield(a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := tr.Consumptions()
	if len(cons) != 16 {
		t.Fatalf("consumptions = %d, want 16", len(cons))
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Seq != tr.Events[i-1].Seq+1 {
			t.Fatal("trace sequence numbers not dense")
		}
	}
	// Consumption order must match the read order.
	for i, c := range cons {
		if c.Block != mem.BlockAddr(i*64) {
			t.Fatalf("consumption %d block = %#x, want %#x", i, c.Block, i*64)
		}
	}
}

func TestAccessOutOfRangePanics(t *testing.T) {
	e := smallEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node should panic")
		}
	}()
	e.AccessEmit(mem.Access{Node: 99, Addr: 0, Type: mem.Read}, nil)
}

func TestClassificationString(t *testing.T) {
	classes := []Classification{Hit, PrivateMiss, Consumption, SpinMiss, WriteHit, WriteMiss}
	seen := map[string]bool{}
	for _, c := range classes {
		s := c.String()
		if s == "" || seen[s] {
			t.Fatalf("classification %d has empty/duplicate string", c)
		}
		seen[s] = true
	}
	if Classification(99).String() == "" {
		t.Fatal("unknown classification should have a string")
	}
}
