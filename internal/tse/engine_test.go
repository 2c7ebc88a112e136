package tse

import (
	"testing"

	"tsm/internal/directory"
	"tsm/internal/mem"
)

// testConfig returns a small TSE configuration for unit tests.
func testConfig() Config {
	return Config{
		Nodes:           2,
		Geometry:        mem.DefaultGeometry(),
		CMOBEntries:     0,
		SVBEntries:      0,
		StreamQueues:    4,
		ComparedStreams: 2,
		Lookahead:       4,
	}
}

// staticReader builds a CMOBReader over fixed per-node orders.
func staticReader(orders map[mem.NodeID][]mem.BlockAddr) CMOBReader {
	cmobs := map[mem.NodeID]*CMOB{}
	for n, order := range orders {
		c := NewCMOB(0)
		for _, b := range order {
			c.Append(b)
		}
		cmobs[n] = c
	}
	return func(dst []mem.BlockAddr, node mem.NodeID, offset uint64, n int) ([]mem.BlockAddr, uint64) {
		c, ok := cmobs[node]
		if !ok {
			return dst, offset
		}
		return c.AppendStream(dst, offset, n)
	}
}

func blocks(idx ...int) []mem.BlockAddr {
	out := make([]mem.BlockAddr, len(idx))
	for i, v := range idx {
		out[i] = mem.BlockAddr(v * 64)
	}
	return out
}

func ptr(node mem.NodeID, offset uint64) directory.CMOBPointer {
	return directory.CMOBPointer{Node: node, Offset: offset, Valid: true}
}

func TestEngineFollowsSingleStream(t *testing.T) {
	// Node 1's order is A B C D E F; node 0 misses on B and the engine is
	// handed a pointer to B's position in node 1's CMOB. Subsequent
	// consumptions C,D,E,F must hit the SVB (Figure 1's scenario).
	order := blocks(0, 1, 2, 3, 4, 5) // A..F
	e := NewEngine(0, testConfig(), staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))

	if covered := e.Consumption(order[1], []directory.CMOBPointer{ptr(1, 1)}); covered {
		t.Fatal("the stream head itself cannot be covered")
	}
	for i := 2; i < 6; i++ {
		if covered := e.Consumption(order[i], nil); !covered {
			t.Fatalf("consumption of block %d should hit the SVB", i)
		}
	}
	st := e.Stats()
	if st.Covered != 4 || st.Consumptions != 5 {
		t.Fatalf("stats = %+v, want 4 covered of 5", st)
	}
	if st.StreamsAllocated != 1 {
		t.Fatalf("StreamsAllocated = %d, want 1", st.StreamsAllocated)
	}
}

func TestEngineLookaheadLimitsOutstanding(t *testing.T) {
	order := make([]mem.BlockAddr, 64)
	for i := range order {
		order[i] = mem.BlockAddr(i * 64)
	}
	cfg := testConfig()
	cfg.Lookahead = 4
	e := NewEngine(0, cfg, staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0)})
	if got := e.SVB().Len(); got != 4 {
		t.Fatalf("SVB holds %d blocks after allocation, want lookahead=4", got)
	}
	// Each hit retrieves one more block, keeping lookahead outstanding.
	e.Consumption(order[1], nil)
	if got := e.SVB().Len(); got != 4 {
		t.Fatalf("SVB holds %d blocks after a hit, want 4", got)
	}
}

func TestEngineFollowsLongStreamViaRefills(t *testing.T) {
	// A stream much longer than the FIFO capacity must still be followed
	// end to end thanks to half-empty refills (Section 3.3); this is what
	// distinguishes TSE from fixed-depth prefetchers.
	n := 500
	order := make([]mem.BlockAddr, n)
	for i := range order {
		order[i] = mem.BlockAddr(i * 64)
	}
	e := NewEngine(0, testConfig(), staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0)})
	covered := 0
	for i := 1; i < n; i++ {
		if e.Consumption(order[i], nil) {
			covered++
		}
	}
	if covered != n-1 {
		t.Fatalf("covered %d of %d, want all after the head", covered, n-1)
	}
	if e.Stats().RefillRequests == 0 {
		t.Fatal("long stream should have triggered CMOB refills")
	}
}

func TestEngineTwoStreamAgreement(t *testing.T) {
	// Both recent consumers followed the same order: the engine streams.
	order := blocks(10, 11, 12, 13, 14)
	reader := staticReader(map[mem.NodeID][]mem.BlockAddr{1: order, 2: order})
	e := NewEngine(0, testConfig(), reader)
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0), ptr(2, 0)})
	if e.SVB().Len() == 0 {
		t.Fatal("agreeing streams should be fetched")
	}
	for i := 1; i < 5; i++ {
		if !e.Consumption(order[i], nil) {
			t.Fatalf("block %d should be covered", i)
		}
	}
}

func TestEngineDivergingStreamsStallThenResolve(t *testing.T) {
	// The two recent consumers followed different orders after the head:
	// the engine must stall (fetch nothing) until a processor miss
	// identifies which stream is being followed, then follow only that one.
	head := mem.BlockAddr(0)
	orderA := append([]mem.BlockAddr{head}, blocks(1, 2, 3, 4, 5)...)
	orderB := append([]mem.BlockAddr{head}, blocks(11, 12, 13, 14, 15)...)
	reader := staticReader(map[mem.NodeID][]mem.BlockAddr{1: orderA, 2: orderB})
	e := NewEngine(0, testConfig(), reader)

	e.Consumption(head, []directory.CMOBPointer{ptr(1, 0), ptr(2, 0)})
	if e.SVB().Len() != 0 {
		t.Fatalf("diverging streams must not fetch; SVB holds %d", e.SVB().Len())
	}
	if e.Stats().StreamsStalled != 1 {
		t.Fatalf("StreamsStalled = %d, want 1", e.Stats().StreamsStalled)
	}
	// The processor follows order B: the miss on block 11 resolves the
	// stall and subsequent blocks stream from order B only.
	if covered := e.Consumption(mem.BlockAddr(11*64), nil); covered {
		t.Fatal("the resolving miss itself is not covered")
	}
	if e.Stats().StreamsResolved != 1 {
		t.Fatalf("StreamsResolved = %d, want 1", e.Stats().StreamsResolved)
	}
	for _, b := range blocks(12, 13, 14, 15) {
		if !e.Consumption(b, nil) {
			t.Fatalf("block %#x should be covered after reselection", b)
		}
	}
	// Nothing from order A was ever fetched.
	for _, b := range blocks(1, 2, 3, 4, 5) {
		if e.SVB().Contains(b) {
			t.Fatalf("block %#x from the losing stream should not be fetched", b)
		}
	}

	// Only the lookahead window of each FIFO identifies the stream: block
	// 20 sits past the window (lookahead 4) in FIFO 0 and inside it in FIFO
	// 1, so the miss resolves to order B's FIFO.
	orderA = append([]mem.BlockAddr{head}, blocks(1, 2, 3, 4, 5, 20)...)
	orderB = append([]mem.BlockAddr{head}, blocks(11, 20, 13, 14, 15)...)
	e = NewEngine(0, testConfig(), staticReader(map[mem.NodeID][]mem.BlockAddr{1: orderA, 2: orderB}))
	e.Consumption(head, []directory.CMOBPointer{ptr(1, 0), ptr(2, 0)})
	e.Consumption(mem.BlockAddr(20*64), nil)
	if e.Stats().StreamsResolved != 1 {
		t.Fatalf("StreamsResolved = %d, want 1", e.Stats().StreamsResolved)
	}
	for _, b := range blocks(13, 14, 15) {
		if !e.Consumption(b, nil) {
			t.Fatalf("block %#x should be covered after resolving to FIFO 1", b)
		}
	}
}

func TestEngineSingleStreamNoComparisonFetchesImmediately(t *testing.T) {
	// With only one compared stream there is no accuracy gauge: the engine
	// streams unconditionally, which is exactly why Figure 7 shows very
	// high discard rates for commercial workloads with one stream.
	cfg := testConfig()
	cfg.ComparedStreams = 1
	order := blocks(1, 2, 3, 4, 5)
	e := NewEngine(0, cfg, staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0)})
	if e.SVB().Len() != 4 {
		t.Fatalf("single-stream engine should fetch lookahead blocks, SVB=%d", e.SVB().Len())
	}
}

func TestEngineWriteInvalidatesStreamedBlock(t *testing.T) {
	order := blocks(1, 2, 3, 4, 5)
	e := NewEngine(0, testConfig(), staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0)})
	target := order[2]
	if !e.SVB().Contains(target) {
		t.Fatal("expected block to be streamed")
	}
	e.Write(target)
	if e.SVB().Contains(target) {
		t.Fatal("write must invalidate the streamed copy")
	}
	// The invalidated block now misses.
	if e.Consumption(target, nil) {
		t.Fatal("invalidated block must not count as covered")
	}
}

func TestEngineNoPointersNoStream(t *testing.T) {
	e := NewEngine(0, testConfig(), staticReader(nil))
	if e.Consumption(64, nil) {
		t.Fatal("consumption with no history cannot be covered")
	}
	if e.Stats().StreamsAllocated != 0 || e.SVB().Len() != 0 {
		t.Fatal("no stream should be allocated without pointers")
	}
}

func TestEngineQueueLRUReplacementRecordsStreamLength(t *testing.T) {
	cfg := testConfig()
	cfg.StreamQueues = 1
	orders := map[mem.NodeID][]mem.BlockAddr{
		1: blocks(1, 2, 3, 4, 5),
	}
	e := NewEngine(0, cfg, staticReader(orders))
	e.Consumption(blocks(1)[0], []directory.CMOBPointer{ptr(1, 0)})
	e.Consumption(blocks(2)[0], nil) // one hit on the stream
	// A new unrelated head forces the single queue to be recycled.
	e.Consumption(mem.BlockAddr(100*64), []directory.CMOBPointer{ptr(1, 0)})
	e.Finish()
	h := e.StreamLengths()
	if h.Total() == 0 {
		t.Fatal("retired streams should be recorded in the length histogram")
	}
}

func TestEngineFinishFlushesSVB(t *testing.T) {
	order := blocks(1, 2, 3, 4, 5)
	e := NewEngine(0, testConfig(), staticReader(map[mem.NodeID][]mem.BlockAddr{1: order}))
	e.Consumption(order[0], []directory.CMOBPointer{ptr(1, 0)})
	fetched := e.Stats().BlocksFetched
	if fetched == 0 {
		t.Fatal("expected fetched blocks")
	}
	e.Finish()
	if e.SVB().Len() != 0 {
		t.Fatal("Finish must flush the SVB")
	}
	if e.SVB().Stats().Discards != fetched {
		t.Fatalf("discards = %d, want %d (all unused)", e.SVB().Stats().Discards, fetched)
	}
}
