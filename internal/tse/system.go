package tse

import (
	"fmt"
	"math/bits"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Traffic is the interconnect bytes attributable to TSE, by category.
// Section 5.4 / Figure 11 report the overhead categories relative to base
// traffic; correctly streamed blocks replace baseline coherent read misses
// one-for-one and are therefore not overhead. Each category is a message
// count the engines and SVBs already keep times a message size.
type Traffic struct {
	// PointerUpdateBytes is CMOB-pointer update messages to directories:
	// CMOBPointerBytes per consumption.
	PointerUpdateBytes uint64
	// StreamRequestBytes is stream request messages from directories to
	// recent consumers: requestMessageBytes per CMOB read that delivered
	// addresses (EngineStats.StreamRequests).
	StreamRequestBytes uint64
	// StreamAddressBytes is the address streams forwarded between nodes
	// (the dominant overhead component per Section 5.4): CMOBEntryBytes per
	// address received.
	StreamAddressBytes uint64
	// DiscardedDataBytes is data blocks streamed but never used: the block,
	// its data header and its request per discard.
	DiscardedDataBytes uint64
}

// requestMessageBytes approximates a coherence request/control message.
const requestMessageBytes = 8

// dataHeaderBytes approximates the header carried with a data reply.
const dataHeaderBytes = 8

// OverheadBytes returns the TSE overhead traffic.
func (t Traffic) OverheadBytes() uint64 {
	return t.PointerUpdateBytes + t.StreamRequestBytes + t.StreamAddressBytes + t.DiscardedDataBytes
}

// Result summarises a trace-driven TSE run.
type Result struct {
	// Consumptions is the number of consumption events processed.
	Consumptions uint64
	// Covered is the number of consumptions eliminated (SVB hits).
	Covered uint64
	// BlocksFetched is the number of blocks streamed into SVBs.
	BlocksFetched uint64
	// Discards is the number of streamed blocks never used.
	Discards uint64
	// StreamsAllocated counts stream-queue allocations across all nodes.
	StreamsAllocated uint64
	// StreamLengths is the distribution of SVB hits per stream.
	StreamLengths *Histogram
	// Traffic is the interconnect accounting.
	Traffic Traffic
	// CMOBPeakBytes is the largest per-node CMOB residency observed.
	CMOBPeakBytes int
}

// Coverage returns the fraction of consumptions eliminated.
func (r Result) Coverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Consumptions)
}

// DiscardRate returns discarded blocks as a fraction of consumptions (the
// paper's normalisation for Figures 7–9 and 12; it can exceed 1).
func (r Result) DiscardRate() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Discards) / float64(r.Consumptions)
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("consumptions=%d coverage=%.1f%% discards=%.1f%%",
		r.Consumptions, 100*r.Coverage(), 100*r.DiscardRate())
}

// System is the whole-machine trace-driven TSE model: one CMOB and one
// stream engine per node, plus the directory's CMOB-pointer extension. It
// consumes the globally ordered consumption/write event stream produced by
// the functional coherence engine and accumulates the metrics the paper
// reports.
//
// The System names each consumed block by a dense BlockID, found with the
// one hash probe of a consumption, and indexes all its per-block state by
// it. It keeps one holder mask per block: bit n is set exactly while node
// n's SVB holds the block (mem.MaxNodes is 64, so a mask is one uint64).
// The SVBs maintain it on every insert, hit and discard, and a write visits
// only the nodes its block's mask names.
type System struct {
	cfg     Config
	cmobs   []CMOB
	engines []*Engine
	holders []uint64 // by BlockID
	ptrs    pointerTable
	peak    int
}

// NewSystem builds a TSE system model. It panics on an invalid
// configuration.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, ptrs: newPointerTable(cfg.ComparedStreams)}
	s.cmobs = make([]CMOB, cfg.Nodes)
	s.engines = make([]*Engine, cfg.Nodes)
	read := func(dst []BlockID, node mem.NodeID, offset uint64, n int) ([]BlockID, uint64) {
		return s.cmobs[node].AppendStream(dst, offset, n)
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.cmobs[i] = CMOB{capacity: cfg.CMOBEntries}
		e := NewEngine(mem.NodeID(i), cfg, read)
		e.svb.holders, e.svb.bit = &s.holders, 1<<i
		s.engines[i] = e
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Engine returns the stream engine of one node: its Fetched, HitStamp and
// SVB, read after Consume, and white-box tests.
func (s *System) Engine(node mem.NodeID) *Engine { return s.engines[node] }

// CMOB returns the CMOB of one node (for white-box tests).
func (s *System) CMOB(node mem.NodeID) *CMOB { return &s.cmobs[node] }

// Consume processes a consumption by node in global order. It reports
// whether TSE eliminated the consumption (the block was already in the
// node's SVB).
func (s *System) Consume(node mem.NodeID, block mem.BlockAddr) bool {
	if int(node) < 0 || int(node) >= s.cfg.Nodes {
		panic(fmt.Sprintf("tse: consumption from node %d outside [0,%d)", node, s.cfg.Nodes))
	}

	// The id lookup is the consumption's one hash probe. The engine uses
	// the block's pointers only if the SVB misses, and the consumption's
	// own pointer is then recorded into the same slots.
	id, fresh := s.ptrs.intern(block)
	if fresh {
		s.holders = append(s.holders, 0)
	}
	slots := s.ptrs.slots(id)
	covered := s.engines[node].Consumption(id, validPointers(slots))

	// Record the consumption in the node's CMOB (useful streamed hits are
	// recorded too, since they replace the misses they eliminated), and
	// send the CMOB pointer update to the directory.
	offset := s.cmobs[node].Append(id)
	recordPointer(slots, CMOBPointer{Node: node, Offset: offset})
	if sb := s.cmobs[node].StorageBytes(); sb > s.peak {
		s.peak = sb
	}
	return covered
}

// WriteBlock processes a write to block by any node: it invalidates the
// streamed copies at the nodes whose SVB holds it, in ascending node order.
// It assigns no id: a block never consumed is in no CMOB, so no SVB can hold
// it.
func (s *System) WriteBlock(block mem.BlockAddr) {
	id, ok := s.ptrs.index[block]
	if !ok {
		return
	}
	for m := s.holders[id]; m != 0; m &= m - 1 {
		s.engines[bits.TrailingZeros64(m)].Write(id)
	}
}

// RunColumns processes one chunk of events held as parallel columns (the
// struct-of-arrays regions decoded by internal/stream), in column order.
// This is the columnar form of Run's inner loop: the kind classify
// sweeps a dense same-typed array and each event touches only the columns
// its kind actually uses — consumptions read node+block, writes read block,
// read-miss annotations are skipped without assembling anything. Results
// are bit-identical to feeding the same events through Consume/WriteBlock
// one at a time.
func (s *System) RunColumns(kinds []trace.EventKind, nodes []mem.NodeID, blocks []mem.BlockAddr) {
	for i, k := range kinds {
		switch k {
		case trace.KindConsumption:
			s.Consume(nodes[i], blocks[i])
		case trace.KindWrite:
			s.WriteBlock(blocks[i])
		}
	}
}

// Finish flushes all per-node state (counting unconsumed streamed blocks as
// discards) and returns the aggregated result, with the traffic derived from
// the summed counters. The System must not be used after Finish.
func (s *System) Finish() Result {
	res := Result{StreamLengths: NewHistogram()}
	for _, eng := range s.engines {
		eng.Finish()
	}
	var requests, addresses uint64
	for _, eng := range s.engines {
		es := eng.Stats()
		res.Consumptions += es.Consumptions
		res.Covered += es.Covered
		res.BlocksFetched += es.BlocksFetched
		res.StreamsAllocated += es.StreamsAllocated
		res.Discards += eng.SVB().Stats().Discards
		requests += es.StreamRequests
		addresses += es.AddressesReceived
		for _, b := range eng.StreamLengths().Buckets() {
			res.StreamLengths.AddN(b, eng.StreamLengths().Count(b))
		}
	}
	res.Traffic = Traffic{
		PointerUpdateBytes: res.Consumptions * CMOBPointerBytes,
		StreamRequestBytes: requests * requestMessageBytes,
		StreamAddressBytes: addresses * CMOBEntryBytes,
		DiscardedDataBytes: res.Discards * uint64(mem.DefaultBlockSize+dataHeaderBytes+requestMessageBytes),
	}
	res.CMOBPeakBytes = s.peak
	return res
}

// LiveStats is a mid-run snapshot of the whole-machine TSE state, cheap
// enough to take at every sampling epoch: pure aggregation over per-node
// counters, no flushing, no mutation. Unlike Finish it leaves the System
// fully usable, and unlike Result it reports the RESIDENT state too (blocks
// currently sitting in SVBs, CMOB storage in use) — the curves of the
// paper's occupancy figures rather than end-of-run totals.
type LiveStats struct {
	// Consumptions and Covered are the cumulative totals so far; at end of
	// stream they equal the final Result's (Finish only adds unused resident
	// blocks to Discards), so a final-epoch Coverage matches the report
	// exactly.
	Consumptions uint64
	Covered      uint64
	// BlocksFetched is blocks streamed into SVBs so far.
	BlocksFetched uint64
	// Discards is streamed blocks already discarded (resident blocks that
	// would become end-of-run discards are not counted until they actually
	// are).
	Discards uint64
	// StreamsAllocated is cumulative stream-queue allocations.
	StreamsAllocated uint64
	// SVBResident is the blocks currently held across all SVBs.
	SVBResident int
	// CMOBBytes is the current CMOB storage in use across all nodes.
	CMOBBytes int
}

// Coverage returns the fraction of consumptions eliminated so far.
func (ls LiveStats) Coverage() float64 {
	if ls.Consumptions == 0 {
		return 0
	}
	return float64(ls.Covered) / float64(ls.Consumptions)
}

// Values renders the snapshot as the values of one series sample: the one
// schema of every TSE series, coverage model and TSE timing model alike.
func (ls LiveStats) Values() map[string]float64 {
	return map[string]float64{
		"consumptions": float64(ls.Consumptions),
		"covered":      float64(ls.Covered),
		"coverage":     ls.Coverage(),
		"fetched":      float64(ls.BlocksFetched),
		"discards":     float64(ls.Discards),
		"streams":      float64(ls.StreamsAllocated),
		"svb_resident": float64(ls.SVBResident),
		"cmob_bytes":   float64(ls.CMOBBytes),
	}
}

// Probe aggregates the current per-node state without flushing anything. It
// must run between events (same goroutine as Consume/WriteBlock), which is
// exactly when the pipeline's sampling pump fires.
func (s *System) Probe() LiveStats {
	var ls LiveStats
	for i, eng := range s.engines {
		es := eng.Stats()
		ls.Consumptions += es.Consumptions
		ls.Covered += es.Covered
		ls.BlocksFetched += es.BlocksFetched
		ls.StreamsAllocated += es.StreamsAllocated
		ls.Discards += eng.SVB().Stats().Discards
		ls.SVBResident += eng.SVB().Len()
		ls.CMOBBytes += s.cmobs[i].StorageBytes()
	}
	return ls
}

// Run processes every event of an in-memory trace, one at a time through
// Consume/WriteBlock, and returns the final result. It is the per-event
// oracle the column path (RunColumns, driven by analysis.TSEConsumer) is
// tested against. The System must not be used afterwards.
func (s *System) Run(tr *trace.Trace) Result {
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindConsumption:
			s.Consume(e.Node, e.Block)
		case trace.KindWrite:
			s.WriteBlock(e.Block)
		}
	}
	return s.Finish()
}
