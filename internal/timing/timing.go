// Package timing implements the cycle-level DSM timing model used to
// reproduce Figure 14 (execution-time breakdown and TSE speedup) and the
// cycle-accurate columns of Table 3 (full vs. partial coverage).
//
// The model replays a workload's globally ordered consumption/write trace.
// Each node alternates between non-coherent work (busy cycles plus other
// stalls, sized from the workload's Figure 14 baseline breakdown) and
// coherent read misses, which it issues in bursts bounded by the workload's
// consumption MLP (Table 3). A coherent read costs the 3-hop miss latency of
// Table 1; with TSE enabled, a consumption that hits the SVB costs only an
// L2-like probe if the streamed block has already arrived (full coverage) or
// the remaining in-flight time if it is still on its way (partial coverage).
// Streamed-block arrival times follow Section 5.6: the latency to retrieve a
// stream and initiate streaming is approximately the same as the latency to
// fill the consumption miss that triggered the lookup. As in the hardware,
// where that time belongs to the SVB entry waiting for the data, each
// streamed block's arrival cycle is stamped into the SVB slot that holds it
// (tse.Engine.Fetched, tse.SVB.Stamp) and handed back when a consumption
// hits the slot (tse.Engine.HitStamp); a discarded block's time leaves with
// its slot, so the model keeps no per-block state of its own.
package timing

import (
	"fmt"
	"io"
	"math"

	"tsm/internal/config"
	"tsm/internal/mem"
	"tsm/internal/obs"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// Breakdown is the execution-time breakdown of Figure 14, in cycles summed
// across nodes.
type Breakdown struct {
	BusyCycles          uint64
	OtherStallCycles    uint64
	CoherentStallCycles uint64
}

// Total returns the total cycles of the breakdown.
func (b Breakdown) Total() uint64 {
	return b.BusyCycles + b.OtherStallCycles + b.CoherentStallCycles
}

// Fractions returns the normalised breakdown (busy, other, coherent).
func (b Breakdown) Fractions() (busy, other, coherent float64) {
	t := float64(b.Total())
	if t == 0 {
		return 0, 0, 0
	}
	return float64(b.BusyCycles) / t, float64(b.OtherStallCycles) / t, float64(b.CoherentStallCycles) / t
}

// Result summarises one timing simulation.
type Result struct {
	// Breakdown is the execution-time breakdown summed over nodes.
	Breakdown Breakdown
	// Consumptions is the number of consumptions simulated.
	Consumptions uint64
	// FullCovered counts consumptions whose streamed block had already
	// arrived (cost an SVB probe only).
	FullCovered uint64
	// PartialCovered counts consumptions whose streamed block was still in
	// flight (part of the miss latency was hidden).
	PartialCovered uint64
	// PartialLatencyHidden is the average fraction of the miss latency
	// hidden for partially covered consumptions.
	PartialLatencyHidden float64
	// MeasuredMLP is the average burst size actually simulated.
	MeasuredMLP float64
	// SegmentCycles records total cycles per measurement segment (same
	// segmentation for base and TSE runs), enabling paired speedup
	// confidence intervals in the SMARTS style.
	SegmentCycles []uint64
	// TSE is the trace-driven result of the run's own TSE system (zero for
	// the baseline). The timing model only stamps and reads back the SVB
	// slots of the system's fetches, so this equals a plain tse.System run
	// over the same trace: the coverage, stream lengths and traffic of the
	// paper configuration come from the same pass as its timing.
	TSE tse.Result
}

// TotalCycles returns the total execution cycles (summed over nodes), the
// quantity whose ratio between base and TSE runs is the Figure 14 speedup.
func (r Result) TotalCycles() uint64 { return r.Breakdown.Total() }

// FullCoverage returns FullCovered / Consumptions.
func (r Result) FullCoverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.FullCovered) / float64(r.Consumptions)
}

// PartialCoverage returns PartialCovered / Consumptions.
func (r Result) PartialCoverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.PartialCovered) / float64(r.Consumptions)
}

// Params configures one timing simulation. The latencies are Table 1's
// (config.DefaultSystem), and every 2,000 consumptions form one measurement
// segment.
type Params struct {
	// Profile supplies the workload's baseline breakdown, MLP and
	// lookahead (Figure 14 / Table 3).
	Profile workload.TimingProfile
	// Nodes is the number of nodes in the trace.
	Nodes int
	// TSE, when non-nil, enables the temporal streaming engine with the
	// given configuration; nil simulates the baseline system.
	TSE *tse.Config
}

// segmentConsumptions is how many consumptions form one measurement segment
// for confidence intervals.
const segmentConsumptions = 2000

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if err := p.Profile.Validate(); err != nil {
		return err
	}
	if p.Nodes <= 0 {
		return fmt.Errorf("timing: nodes must be positive")
	}
	if p.TSE != nil {
		if err := p.TSE.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// nodeState is the per-node simulation state. The arrival times of the
// blocks streamed to the node are not kept here but in its SVB's slots.
type nodeState struct {
	clock uint64
	// burstMax and burstLen are the longest latency and the number of the
	// consumptions issued in the current MLP burst; the burst stall is the
	// maximum.
	burstMax    uint64
	burstLen    int
	burstBudget int
	// mlpAcc carries the fractional part of the target burst size so that
	// the average burst size matches a non-integer MLP.
	mlpAcc    float64
	breakdown Breakdown
}

// streamSpacing is the spacing in cycles between successive streamed data
// blocks of one burst.
const streamSpacing = 30

// simulator is one timing simulation's state. step is its per-event body,
// shared by Simulate's loop over an in-memory trace (the oracle) and
// Consumer.Run's loop over column chunks, so both paths run the same
// arithmetic in the same order.
type simulator struct {
	p Params

	lCoh, lSVB uint64
	// streamStart is the stream retrieval latency: the stream
	// lookup+forwarding round trip is approximately one more 3-hop latency
	// after the triggering miss fills.
	streamStart uint64
	// mlp is the (possibly fractional) target burst size.
	mlp float64
	// busyPerCons and otherPerCons are the non-coherent work preceding each
	// consumption.
	busyPerCons, otherPerCons uint64

	nodes []nodeState
	sys   *tse.System // nil for the baseline system
	// epoch, when non-nil, receives every consumption's resolved latency in
	// cycles (the sampling Consumer's per-epoch histogram). It is a pure
	// tap: the simulation's arithmetic and results are unaffected.
	epoch *obs.Histogram

	res                       Result
	partialHiddenSum          float64
	bursts, burstConsumptions uint64
	segCount                  int
	prevTotal                 uint64
}

// newSimulator validates p and builds the per-node state (and, with TSE
// enabled, the TSE system whose SVB slots hold the arrival times).
func newSimulator(p Params) (*simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &simulator{p: p}
	sys := config.DefaultSystem()
	s.lCoh = sys.ThreeHopLatencyCycles()
	s.lSVB = sys.SVBHitLatencyCycles()
	s.streamStart = 2 * s.lCoh

	// Per-consumption non-coherent work, derived so that the baseline
	// breakdown matches the workload profile by construction: the baseline
	// coherent stall per consumption is lCoh/MLP.
	s.mlp = p.Profile.MLP
	if s.mlp < 1 {
		s.mlp = 1
	}
	cohPerCons := float64(s.lCoh) / s.mlp
	nonCohFrac := p.Profile.BusyFraction + p.Profile.OtherStallFraction
	gap := cohPerCons * nonCohFrac / p.Profile.CoherentStallFraction
	busyShare := 0.0
	if nonCohFrac > 0 {
		busyShare = p.Profile.BusyFraction / nonCohFrac
	}
	s.busyPerCons = uint64(gap*busyShare + 0.5)
	s.otherPerCons = uint64(gap*(1-busyShare) + 0.5)

	s.nodes = make([]nodeState, p.Nodes)
	for i := range s.nodes {
		s.nodes[i].burstBudget = s.nextBurstSize(&s.nodes[i])
	}
	if p.TSE != nil {
		cfg := *p.TSE
		cfg.Nodes = p.Nodes
		s.sys = tse.NewSystem(cfg)
	}
	return s, nil
}

// nextBurstSize yields burst sizes whose running average equals the
// (possibly fractional) MLP target.
func (s *simulator) nextBurstSize(n *nodeState) int {
	n.mlpAcc += s.mlp
	size := int(n.mlpAcc)
	if size < 1 {
		size = 1
	}
	n.mlpAcc -= float64(size)
	return size
}

// flushBurst stalls the node for the longest latency of its current burst.
func (s *simulator) flushBurst(n *nodeState) {
	if n.burstLen == 0 {
		return
	}
	n.clock += n.burstMax
	n.breakdown.CoherentStallCycles += n.burstMax
	s.bursts++
	s.burstConsumptions += uint64(n.burstLen)
	n.burstMax, n.burstLen = 0, 0
	n.burstBudget = s.nextBurstSize(n)
}

// totalBreakdown returns the cycles accumulated so far across all nodes.
func (s *simulator) totalBreakdown() uint64 {
	var t uint64
	for i := range s.nodes {
		t += s.nodes[i].breakdown.Total()
	}
	return t
}

// step simulates one event. Only the three fields the model reads are
// passed: a consumption uses its node and block, a write its block, and
// every other kind is ignored.
func (s *simulator) step(kind trace.EventKind, node mem.NodeID, block mem.BlockAddr) {
	switch kind {
	case trace.KindWrite:
		if s.sys != nil {
			s.sys.WriteBlock(block)
		}
	case trace.KindConsumption:
		if int(node) < 0 || int(node) >= s.p.Nodes {
			return
		}
		n := &s.nodes[node]
		s.res.Consumptions++

		// Non-coherent work preceding the consumption.
		n.clock += s.busyPerCons + s.otherPerCons
		n.breakdown.BusyCycles += s.busyPerCons
		n.breakdown.OtherStallCycles += s.otherPerCons

		// Determine the consumption's latency.
		latency := s.lCoh
		if s.sys != nil {
			// The blocks this call streams arrive, for a newly located
			// stream, after the lookup and forwarding, then by pipelined
			// data delivery; in steady state (a covered consumption
			// advancing its stream), after one retrieval round trip.
			at, spacing := n.clock+s.streamStart, uint64(streamSpacing)
			eng := s.sys.Engine(node)
			if s.sys.Consume(node, block) {
				at, spacing = n.clock+s.lCoh, 0
				// An unstamped slot reads 0: the block has arrived.
				if arrival := eng.HitStamp(); arrival <= n.clock {
					latency = s.lSVB
					s.res.FullCovered++
				} else {
					remaining := min(arrival-n.clock, s.lCoh)
					latency = min(remaining+s.lSVB, s.lCoh)
					s.res.PartialCovered++
					s.partialHiddenSum += 1 - float64(remaining)/float64(s.lCoh)
				}
			}
			// Stamp their slots in stream order, so a slot this call
			// evicted and refilled keeps its last block's time.
			for k, slot := range eng.Fetched() {
				eng.SVB().Stamp(slot, at+uint64(k)*spacing)
			}
		}

		s.epoch.Observe(latency)

		// Issue into the current MLP burst.
		n.burstMax = max(n.burstMax, latency)
		n.burstLen++
		n.burstBudget--
		if n.burstBudget <= 0 {
			s.flushBurst(n)
		}

		// Segment accounting for confidence intervals.
		s.segCount++
		if s.segCount >= segmentConsumptions {
			cur := s.totalBreakdown()
			s.res.SegmentCycles = append(s.res.SegmentCycles, cur-s.prevTotal)
			s.prevTotal = cur
			s.segCount = 0
		}
	}
}

// finish flushes every node's open burst and returns the result.
func (s *simulator) finish() Result {
	for i := range s.nodes {
		s.flushBurst(&s.nodes[i])
	}
	res := s.res
	if s.sys != nil {
		res.TSE = s.sys.Finish()
	}
	for _, n := range s.nodes {
		res.Breakdown.BusyCycles += n.breakdown.BusyCycles
		res.Breakdown.OtherStallCycles += n.breakdown.OtherStallCycles
		res.Breakdown.CoherentStallCycles += n.breakdown.CoherentStallCycles
	}
	if res.PartialCovered > 0 {
		res.PartialLatencyHidden = s.partialHiddenSum / float64(res.PartialCovered)
	}
	if s.bursts > 0 {
		res.MeasuredMLP = float64(s.burstConsumptions) / float64(s.bursts)
	}
	return res
}

// Simulate runs the timing model over an in-memory trace, one event at a
// time. It is the oracle the streamed Consumer is tested against.
func Simulate(tr *trace.Trace, p Params) (Result, error) {
	s, err := newSimulator(p)
	if err != nil {
		return Result{}, err
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		s.step(e.Kind, e.Node, e.Block)
	}
	return s.finish(), nil
}

// Consumer runs the timing model in the single-decode fan-out engine in
// internal/pipeline (whose Consumer interface it satisfies structurally):
// Run sweeps its private tee of the stream as column chunks through the
// timing model and stores the result, which is bit-identical to Simulate
// over the equivalent in-memory trace.
//
// Consumer also satisfies pipeline.Sampler: with a series attached, Run taps
// every consumption latency into the simulator's per-epoch obs.Histogram,
// and each chunk-boundary pump records the epoch's latency distribution
// (count, mean, interpolated p50/p90/p99) as one sample, then starts a fresh
// epoch. With TSE enabled the sample also carries the live TSE system's
// values (tse.LiveStats.Values), so the final sample's coverage is the
// run's Result.TSE coverage. The simulation's results are identical
// with and without the tap.
type Consumer struct {
	params Params
	// Result is the simulation result, valid after Run returns nil.
	Result Result
	series *obs.Series
	sim    *simulator // live simulation while Run is in flight (sampling only)
}

// NewConsumer wraps one timing simulation at the given parameters.
func NewConsumer(p Params) *Consumer { return &Consumer{params: p} }

// Run implements the pipeline consumer contract.
func (c *Consumer) Run(src stream.Source) error {
	c.Result = Result{}
	s, err := newSimulator(c.params)
	if err != nil {
		return err
	}
	if c.series != nil {
		s.epoch = &obs.Histogram{}
	}
	c.sim = s
	defer func() { c.sim = nil }()
	cols := stream.Columns(src, stream.DefaultChunkEvents)
	for {
		ch, err := cols.NextChunkSoA()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, k := range ch.Kind {
			s.step(k, ch.Node[i], ch.Block[i])
		}
	}
	c.Result = s.finish()
	return nil
}

// AttachSeries implements pipeline.Sampler.
func (c *Consumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample of the latency
// distribution since the previous sample, plus the live TSE values when TSE
// is enabled. Runs on the consumer's goroutine between events; outside Run
// it is a no-op.
func (c *Consumer) SampleAt(seq uint64, final bool) {
	if c.sim == nil || c.sim.epoch == nil || !c.series.Ready(seq, final) {
		return
	}
	values := map[string]float64{}
	if c.sim.sys != nil {
		values = c.sim.sys.Probe().Values()
	}
	snap := c.sim.epoch.Snapshot()
	values["consumptions"] = float64(c.sim.res.Consumptions)
	values["latency_count"] = float64(snap.Count)
	values["latency_mean"] = snap.Mean()
	values["latency_p50"] = snap.P50
	values["latency_p90"] = snap.P90
	values["latency_p99"] = snap.P99
	c.series.Record(seq, values)
	c.sim.epoch = &obs.Histogram{}
}

// Speedup returns base execution time divided by the comparison execution
// time.
func Speedup(base, other Result) float64 {
	if other.TotalCycles() == 0 {
		return 0
	}
	return float64(base.TotalCycles()) / float64(other.TotalCycles())
}

// SpeedupConfidence computes the mean speedup and its 95% confidence
// half-width from paired per-segment cycle counts of a base and a TSE run.
// Segments beyond the shorter run are ignored.
func SpeedupConfidence(base, other Result) (mean, ci float64) {
	n := len(base.SegmentCycles)
	if len(other.SegmentCycles) < n {
		n = len(other.SegmentCycles)
	}
	if n == 0 {
		return Speedup(base, other), 0
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		if other.SegmentCycles[i] == 0 {
			continue
		}
		s := float64(base.SegmentCycles[i]) / float64(other.SegmentCycles[i])
		sum += s
		sumSq += s * s
	}
	mean = sum / float64(n)
	if n > 1 {
		variance := (sumSq - float64(n)*mean*mean) / float64(n-1)
		if variance > 0 {
			ci = 1.96 * math.Sqrt(variance) / math.Sqrt(float64(n))
		}
	}
	return mean, ci
}
