package tse

import (
	"fmt"
	"math/bits"

	"tsm/internal/directory"
	"tsm/internal/mem"
	"tsm/internal/stats"
	"tsm/internal/trace"
)

// Traffic accumulates the interconnect bytes attributable to TSE, by
// category, plus the baseline coherence traffic the same consumptions would
// generate. Section 5.4 / Figure 11 report the overhead categories relative
// to base traffic; correctly streamed blocks replace baseline coherent read
// misses one-for-one and are therefore not overhead.
type Traffic struct {
	// PointerUpdateBytes is CMOB-pointer update messages to directories.
	PointerUpdateBytes uint64
	// StreamRequestBytes is stream request messages from directories to
	// recent consumers.
	StreamRequestBytes uint64
	// StreamAddressBytes is the address streams forwarded between nodes
	// (the dominant overhead component per Section 5.4).
	StreamAddressBytes uint64
	// DiscardedDataBytes is data blocks streamed but never used.
	DiscardedDataBytes uint64
	// BaseBytes is the baseline traffic of the consumptions themselves
	// (request + data reply), used as the denominator of Figure 11's
	// ratio annotations.
	BaseBytes uint64
}

// requestMessageBytes approximates a coherence request/control message.
const requestMessageBytes = 8

// dataHeaderBytes approximates the header carried with a data reply.
const dataHeaderBytes = 8

// OverheadBytes returns the TSE overhead traffic.
func (t Traffic) OverheadBytes() uint64 {
	return t.PointerUpdateBytes + t.StreamRequestBytes + t.StreamAddressBytes + t.DiscardedDataBytes
}

// OverheadRatio returns overhead traffic as a fraction of base traffic.
func (t Traffic) OverheadRatio() float64 {
	if t.BaseBytes == 0 {
		return 0
	}
	return float64(t.OverheadBytes()) / float64(t.BaseBytes)
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
	StreamLengths *stats.Histogram
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
// stream engine per node, plus the directory CMOB-pointer extension. It
// consumes the globally ordered consumption/write event stream produced by
// the functional coherence engine and accumulates the metrics the paper
// reports.
//
// System implements the model interface used by internal/analysis, so it can
// be evaluated side by side with the baseline prefetchers of Figure 12.
//
// The System keeps one holder mask per block streamed into any SVB: bit n is
// set exactly while node n's SVB holds the block (mem.MaxNodes is 64, so a
// mask is one uint64). The SVBs maintain it on every insert, hit and
// discard, and a write visits only the nodes its block's mask names.
type System struct {
	cfg     Config
	cmobs   []CMOB
	engines []*Engine
	holders map[mem.BlockAddr]uint64
	dir     *directory.Directory
	traffic Traffic
	peak    int
}

// NewSystem builds a TSE system model. It panics on an invalid
// configuration.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &System{cfg: cfg, holders: make(map[mem.BlockAddr]uint64)}
	s.dir = directory.New(directory.Config{
		Nodes:            cfg.Nodes,
		Geometry:         cfg.Geometry,
		PointersPerEntry: cfg.ComparedStreams,
	})
	s.cmobs = make([]CMOB, cfg.Nodes)
	s.engines = make([]*Engine, cfg.Nodes)
	read := func(dst []mem.BlockAddr, node mem.NodeID, offset uint64, n int) ([]mem.BlockAddr, uint64) {
		return s.cmobs[node].AppendStream(dst, offset, n)
	}
	for i := 0; i < cfg.Nodes; i++ {
		s.cmobs[i] = CMOB{capacity: cfg.CMOBEntries}
		e := NewEngine(mem.NodeID(i), cfg, read)
		e.svb.holders, e.svb.bit = s.holders, 1<<i
		e.SetRefillHandler(func(source mem.NodeID, addresses int) {
			s.traffic.StreamRequestBytes += requestMessageBytes
			s.traffic.StreamAddressBytes += uint64(addresses) * CMOBEntryBytes
		})
		e.SVB().SetDiscardHandler(func(b mem.BlockAddr, reason DiscardReason) {
			s.traffic.DiscardedDataBytes += uint64(cfg.Geometry.BlockSize + dataHeaderBytes + requestMessageBytes)
		})
		s.engines[i] = e
	}
	return s
}

// Name identifies the model in comparison tables.
func (s *System) Name() string { return "TSE" }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Engine returns the stream engine of one node (for white-box tests).
func (s *System) Engine(node mem.NodeID) *Engine { return s.engines[node] }

// CMOB returns the CMOB of one node (for white-box tests).
func (s *System) CMOB(node mem.NodeID) *CMOB { return &s.cmobs[node] }

// Consumption processes a consumption event in global order and reports
// whether TSE eliminated it (the block was already in the node's SVB).
func (s *System) Consumption(e trace.Event) bool { return s.consume(e.Node, e.Block) }

// consume is the consumption inner loop over the only two fields a
// consumption uses, shared by the per-event path and RunColumns.
func (s *System) consume(node mem.NodeID, block mem.BlockAddr) bool {
	if int(node) < 0 || int(node) >= s.cfg.Nodes {
		panic(fmt.Sprintf("tse: consumption from node %d outside [0,%d)", node, s.cfg.Nodes))
	}

	// The directory lookup happens on the miss path; the engine only uses
	// the pointers if the SVB misses.
	ptrs := s.dir.CMOBPointers(block)
	covered := s.engines[node].Consumption(block, ptrs)

	// Record the consumption in the node's CMOB (useful streamed hits are
	// recorded too, since they replace the misses they eliminated), and
	// send the CMOB pointer update to the directory.
	offset := s.cmobs[node].Append(block)
	s.dir.RecordCMOBPointer(block, directory.CMOBPointer{Node: node, Offset: offset})
	s.traffic.PointerUpdateBytes += CMOBPointerBytes
	if sb := s.cmobs[node].StorageBytes(); sb > s.peak {
		s.peak = sb
	}

	// Baseline traffic for this consumption (request + data reply). With
	// TSE a covered consumption's data arrived via streaming instead, but
	// it replaces the baseline transfer one-for-one, so the base bytes are
	// charged either way.
	s.traffic.BaseBytes += requestMessageBytes + uint64(s.cfg.Geometry.BlockSize) + dataHeaderBytes
	return covered
}

// Write processes a write event: streamed copies of the block anywhere in
// the system are invalidated.
func (s *System) Write(e trace.Event) { s.writeBlock(e.Block) }

// writeBlock is the write inner loop, shared by the per-event path and
// RunColumns. It invalidates the block at the nodes whose SVB holds it, in
// ascending node order.
func (s *System) writeBlock(block mem.BlockAddr) {
	for m := s.holders[block]; m != 0; m &= m - 1 {
		s.engines[bits.TrailingZeros64(m)].Write(block)
	}
}

// RunColumns processes one chunk of events held as parallel columns (the
// struct-of-arrays regions decoded by internal/stream), in column order.
// This is the columnar form of Run's inner loop: the kind classify
// sweeps a dense same-typed array and each event touches only the columns
// its kind actually uses — consumptions read node+block, writes read block,
// read-miss annotations are skipped without assembling anything. Results
// are bit-identical to feeding the same events through Consumption/Write
// one at a time.
func (s *System) RunColumns(kinds []trace.EventKind, nodes []mem.NodeID, blocks []mem.BlockAddr) {
	for i, k := range kinds {
		switch k {
		case trace.KindConsumption:
			s.consume(nodes[i], blocks[i])
		case trace.KindWrite:
			s.writeBlock(blocks[i])
		}
	}
}

// Finish flushes all per-node state (counting unconsumed streamed blocks as
// discards) and returns the aggregated result. The System must not be used
// after Finish.
func (s *System) Finish() Result {
	res := Result{StreamLengths: stats.NewHistogram()}
	for _, eng := range s.engines {
		eng.Finish()
	}
	for _, eng := range s.engines {
		es := eng.Stats()
		res.Consumptions += es.Consumptions
		res.Covered += es.Covered
		res.BlocksFetched += es.BlocksFetched
		res.StreamsAllocated += es.StreamsAllocated
		res.Discards += eng.SVB().Stats().Discards
		for _, b := range eng.StreamLengths().Buckets() {
			res.StreamLengths.AddN(b, eng.StreamLengths().Count(b))
		}
	}
	res.Traffic = s.traffic
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
// must run between events (same goroutine as Consumption/Write), which is
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
// Consumption/Write, and returns the final result. It is the per-event
// oracle the column path (RunColumns, driven by analysis.TSEConsumer) is
// tested against. The System must not be used afterwards.
func (s *System) Run(tr *trace.Trace) Result {
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindConsumption:
			s.Consumption(e)
		case trace.KindWrite:
			s.Write(e)
		}
	}
	return s.Finish()
}
