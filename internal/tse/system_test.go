package tse

import (
	"math"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/trace"
	"tsm/internal/workload"
)

// migratoryTrace builds a trace in which node 0 produces a sequence of
// blocks and nodes 1..n-1 consume the exact same sequence in turn — the
// canonical temporal-streaming scenario.
func migratoryTrace(nodes, length int) *trace.Trace {
	tr := &trace.Trace{}
	for i := 0; i < length; i++ {
		tr.Append(trace.Event{Kind: trace.KindWrite, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	for n := 1; n < nodes; n++ {
		for i := 0; i < length; i++ {
			tr.Append(trace.Event{
				Kind: trace.KindConsumption, Node: mem.NodeID(n),
				Block: mem.BlockAddr(i * 64), Producer: 0,
			})
		}
	}
	return tr
}

func smallSystemConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.CMOBEntries = 0
	cfg.SVBEntries = 0
	cfg.Lookahead = 8
	return cfg
}

func TestSystemCoversRecurringStreams(t *testing.T) {
	cfg := smallSystemConfig()
	s := NewSystem(cfg)
	tr := migratoryTrace(4, 200)
	res := s.Run(tr)

	// Node 1 sees the sequence first with no prior sharer: zero coverage.
	// Nodes 2 and 3 follow node 1's (and 2's) recorded order: near-total
	// coverage apart from each node's first miss (the stream head).
	total := uint64(3 * 200)
	if res.Consumptions != total {
		t.Fatalf("consumptions = %d, want %d", res.Consumptions, total)
	}
	wantMin := uint64(2*200 - 10)
	if res.Covered < wantMin {
		t.Fatalf("covered = %d, want >= %d", res.Covered, wantMin)
	}
	if res.Coverage() < 0.6 {
		t.Fatalf("coverage = %v, want >= 0.6", res.Coverage())
	}
	// Discards should be small: the streams are perfectly correlated.
	if res.DiscardRate() > 0.2 {
		t.Fatalf("discard rate = %v, want <= 0.2", res.DiscardRate())
	}
}

func TestSystemUncorrelatedTrafficLowCoverage(t *testing.T) {
	cfg := smallSystemConfig()
	cfg.ComparedStreams = 2
	s := NewSystem(cfg)
	tr := &trace.Trace{}
	// Producer writes blocks; consumers read them in completely different
	// orders (reversed vs shuffled by stride), so streams never recur.
	n := 300
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Kind: trace.KindWrite, Node: 0, Block: mem.BlockAddr(i * 64)})
	}
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 1, Block: mem.BlockAddr(i * 64), Producer: 0})
	}
	for i := n - 1; i >= 0; i-- {
		tr.Append(trace.Event{Kind: trace.KindConsumption, Node: 2, Block: mem.BlockAddr(i * 64), Producer: 0})
	}
	res := s.Run(tr)
	if res.Coverage() > 0.2 {
		t.Fatalf("coverage on uncorrelated orders = %v, want small", res.Coverage())
	}
}

func TestSystemWriteInvalidatesEverywhere(t *testing.T) {
	cfg := smallSystemConfig()
	s := NewSystem(cfg)
	// Node 1 records order A,B,C. Node 2 misses on A, streams B,C. A write
	// to B by node 3 invalidates node 2's streamed copy, so node 2's read
	// of B is NOT covered.
	a, b, c := mem.BlockAddr(0), mem.BlockAddr(64), mem.BlockAddr(128)
	for _, blk := range []mem.BlockAddr{a, b, c} {
		s.Consume(1, blk)
	}
	if covered := s.Consume(2, a); covered {
		t.Fatal("head miss cannot be covered")
	}
	s.WriteBlock(b)
	if covered := s.Consume(2, b); covered {
		t.Fatal("invalidated streamed block must not be covered")
	}
	if covered := s.Consume(2, c); !covered {
		t.Fatal("unaffected streamed block should still be covered")
	}
}

func TestSystemCMOBCapacityLimitsCoverage(t *testing.T) {
	// With a CMOB far smaller than the working set, the recorded order is
	// overwritten before the next sharer follows it, so coverage collapses
	// (the mechanism behind Figure 10).
	big := smallSystemConfig()
	small := smallSystemConfig()
	small.CMOBEntries = 16

	length := 2000
	resBig := NewSystem(big).Run(migratoryTrace(4, length))
	resSmall := NewSystem(small).Run(migratoryTrace(4, length))
	if resSmall.Coverage() >= resBig.Coverage()/2 {
		t.Fatalf("small CMOB coverage %v not much less than unlimited %v",
			resSmall.Coverage(), resBig.Coverage())
	}
}

func TestSystemTrafficAccounting(t *testing.T) {
	cfg := smallSystemConfig()
	s := NewSystem(cfg)
	res := s.Run(migratoryTrace(4, 100))
	tr := res.Traffic
	if tr.PointerUpdateBytes == 0 {
		t.Fatal("pointer updates should be charged")
	}
	if tr.StreamAddressBytes == 0 || tr.StreamRequestBytes == 0 {
		t.Fatal("stream address/request traffic should be charged")
	}
	// Base traffic per consumption is request + block + header bytes. For
	// perfectly correlated streams the overhead should be a modest fraction
	// of it (the paper reports 16%-57%).
	base := res.Consumptions * uint64(requestMessageBytes+mem.DefaultBlockSize+dataHeaderBytes)
	if ratio := float64(tr.OverheadBytes()) / float64(base); ratio <= 0 || ratio > 1.0 {
		t.Fatalf("overhead ratio = %v, want in (0, 1] for perfect streams", ratio)
	}

	// Exact bytes per category on two workload traces (4 nodes, scale 0.05,
	// seed 1, the default configuration), as charged message by message
	// before the categories were derived from counters.
	for _, tc := range []struct {
		workload string
		want     Traffic
	}{
		{"em3d", Traffic{PointerUpdateBytes: 53280, StreamRequestBytes: 6952, StreamAddressBytes: 45192, DiscardedDataBytes: 50160}},
		{"db2", Traffic{PointerUpdateBytes: 99616, StreamRequestBytes: 25784, StreamAddressBytes: 216828, DiscardedDataBytes: 337040}},
	} {
		spec, _ := workload.ByName(tc.workload)
		gen := spec.New(workload.Config{Nodes: 4, Seed: 1, Scale: 0.05})
		tr, err := coherence.New(coherence.Config{Nodes: 4, Geometry: mem.DefaultGeometry()}).RunFrom(gen.Emit)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Nodes = 4
		if got := NewSystem(cfg).Run(tr).Traffic; got != tc.want {
			t.Errorf("%s: traffic %+v, want %+v", tc.workload, got, tc.want)
		}
	}
}

func TestSystemStreamLengthHistogram(t *testing.T) {
	cfg := smallSystemConfig()
	s := NewSystem(cfg)
	res := s.Run(migratoryTrace(4, 300))
	if res.StreamLengths.Total() == 0 {
		t.Fatal("stream length histogram should not be empty")
	}
	// The dominant streams should be long (hundreds of hits).
	if res.StreamLengths.Mean() < 50 {
		t.Fatalf("mean stream length = %v, want long streams", res.StreamLengths.Mean())
	}
}

func TestSystemResultHelpers(t *testing.T) {
	r := Result{Consumptions: 200, Covered: 100, Discards: 50}
	if r.Coverage() != 0.5 || r.DiscardRate() != 0.25 {
		t.Fatalf("Coverage/DiscardRate = %v/%v", r.Coverage(), r.DiscardRate())
	}
	if (Result{}).Coverage() != 0 || (Result{}).DiscardRate() != 0 {
		t.Fatal("empty result should report zeros")
	}
	if r.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestSystemPanicsOnBadConfigOrNode(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSystem with invalid config should panic")
			}
		}()
		NewSystem(Config{})
	}()
	s := NewSystem(smallSystemConfig())
	defer func() {
		if recover() == nil {
			t.Error("consumption from out-of-range node should panic")
		}
	}()
	s.Consume(99, 0)
}

func TestSystemAccessors(t *testing.T) {
	s := NewSystem(smallSystemConfig())
	if s.Config().Nodes != 4 {
		t.Fatal("Config accessor wrong")
	}
	if s.Engine(0) == nil || s.CMOB(0) == nil {
		t.Fatal("accessors should not return nil")
	}
}

func TestConfigValidateAndHelpers(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{},
		{Nodes: 4, StreamQueues: 0, ComparedStreams: 1, Lookahead: 1},
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 0, Lookahead: 1},
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 1, Lookahead: 0},
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 1, Lookahead: 1, CMOBEntries: -1},
		{Nodes: 100, StreamQueues: 1, ComparedStreams: 1, Lookahead: 1},
		// More FIFO entries per node than a uint16 FIFO count holds: one
		// FIFO of 2 × 32,768 entries.
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 1, Lookahead: 32768},
		{Nodes: 4, StreamQueues: 64, ComparedStreams: 4, Lookahead: 128},
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 1, Lookahead: math.MaxInt},
		{Nodes: 4, StreamQueues: math.MaxInt, ComparedStreams: math.MaxInt, Lookahead: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", c)
		}
	}
	for _, c := range []Config{
		{Nodes: 4, StreamQueues: 1, ComparedStreams: 1, Lookahead: 32767},
		{Nodes: 4, StreamQueues: 64, ComparedStreams: 4, Lookahead: 127},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil at the FIFO entry bound", c, err)
		}
	}
	if c := DefaultConfig().fifoCapacity(); c != 16 {
		t.Fatalf("fifoCapacity = %d, want 2*lookahead", c)
	}
}

// MigratoryTrace and SmallSystemConfig export the fixtures above to the
// external test package (consumer_test.go).
var (
	MigratoryTrace    = migratoryTrace
	SmallSystemConfig = smallSystemConfig
)

// TestSystemProbe pins the live-snapshot contract: Probe never mutates the
// system, its cumulative counters agree with an independent full run, and a
// probe taken after the last event matches the final Result exactly on
// Consumptions/Covered (Finish only moves resident blocks into Discards).
func TestSystemProbe(t *testing.T) {
	tr := migratoryTrace(4, 200)

	// Reference run without probes.
	want := NewSystem(smallSystemConfig()).Run(tr)

	s := NewSystem(smallSystemConfig())
	var mid LiveStats
	for i, e := range tr.Events {
		switch e.Kind {
		case trace.KindConsumption:
			s.Consume(e.Node, e.Block)
		case trace.KindWrite:
			s.WriteBlock(e.Block)
		}
		// Probe at every event: the run's outcome must be unaffected.
		ls := s.Probe()
		if i == len(tr.Events)/2 {
			mid = ls
		}
	}
	final := s.Probe()
	if mid.Consumptions == 0 || mid.Consumptions >= final.Consumptions {
		t.Fatalf("mid-run probe not strictly inside the run: mid=%+v final=%+v", mid, final)
	}
	if final.Consumptions != want.Consumptions || final.Covered != want.Covered {
		t.Fatalf("probed run diverged: probe=%+v want=%+v", final, want)
	}
	if final.BlocksFetched != want.BlocksFetched {
		t.Fatalf("BlocksFetched: probe=%d want=%d", final.BlocksFetched, want.BlocksFetched)
	}
	if got := final.Coverage(); got != want.Coverage() {
		t.Fatalf("final-probe coverage %v != report coverage %v", got, want.Coverage())
	}
	if final.Discards > want.Discards {
		t.Fatalf("live discards %d exceed final discards %d", final.Discards, want.Discards)
	}

	res := s.Finish()
	if res.Consumptions != want.Consumptions || res.Covered != want.Covered || res.Discards != want.Discards {
		t.Fatalf("Finish after probes diverged: %+v vs %+v", res, want)
	}
}
