package timing

import (
	"fmt"
	"reflect"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// refArrival is one streamed block's arrival cycle in the reference, and
// whether the block was stamped as the head of a newly located stream
// (streamStart + k·streamSpacing) rather than in steady state (clock +
// lCoh).
type refArrival struct {
	cycle uint64
	head  bool
}

// refSim is the reference for the arrival times the simulator keeps in SVB
// slots: the timing model's earlier per-node map from block id to arrival
// cycle. It runs the simulator's arithmetic on its own state and TSE
// system, but a covered consumption probes and deletes the map (a block
// with no time has arrived) and every streamed block writes its time
// there. The block a streamed slot holds is read with SVB.Key right after
// the consumption, so a block that a later block of the same consumption
// evicted gets no time; it has left the SVB, and a new insert writes a new
// time, so the old map's entry for it was never read. That the slots name
// the streamed blocks in stream order is tse's TestEngineFetchedIsSVBGain.
type refSim struct {
	*simulator
	arrivals []map[tse.BlockID]refArrival
	// ids names blocks as a System does: densely, in first-consumed order.
	ids map[mem.BlockAddr]tse.BlockID
	// headPartial and steadyPartial split the partial hits by the kind of
	// time their block was stamped with; renamed counts the streamed slots
	// a later block of the same consumption took over.
	headPartial, steadyPartial, renamed uint64
}

func newRefSim(p Params) (*refSim, error) {
	s, err := newSimulator(p)
	if err != nil {
		return nil, err
	}
	r := &refSim{simulator: s, ids: make(map[mem.BlockAddr]tse.BlockID)}
	for range s.nodes {
		r.arrivals = append(r.arrivals, make(map[tse.BlockID]refArrival))
	}
	return r, nil
}

// step is simulator.step with the map in place of the slot stamps.
func (r *refSim) step(kind trace.EventKind, node mem.NodeID, block mem.BlockAddr) {
	s := r.simulator
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
		n.clock += s.busyPerCons + s.otherPerCons
		n.breakdown.BusyCycles += s.busyPerCons
		n.breakdown.OtherStallCycles += s.otherPerCons

		lCoh := s.lCoh
		latency := lCoh
		if s.sys != nil {
			id, seen := r.ids[block]
			if !seen {
				id = tse.BlockID(len(r.ids))
				r.ids[block] = id
			}
			arrivals := r.arrivals[node]
			covered := s.sys.Consume(node, block)
			if covered {
				a, ok := arrivals[id]
				delete(arrivals, id)
				if !ok || a.cycle <= n.clock {
					latency = s.lSVB
					s.res.FullCovered++
				} else {
					remaining := min(a.cycle-n.clock, lCoh)
					latency = min(remaining+s.lSVB, lCoh)
					s.res.PartialCovered++
					s.partialHiddenSum += 1 - float64(remaining)/float64(lCoh)
					if a.head {
						r.headPartial++
					} else {
						r.steadyPartial++
					}
				}
			}
			eng := s.sys.Engine(node)
			named := make(map[int]bool)
			for k, slot := range eng.Fetched() {
				if named[slot] {
					r.renamed++
				}
				named[slot] = true
				b := tse.BlockID(eng.SVB().Key(slot))
				if covered {
					arrivals[b] = refArrival{cycle: n.clock + lCoh}
				} else {
					arrivals[b] = refArrival{cycle: n.clock + s.streamStart + uint64(k)*streamSpacing, head: true}
				}
			}
		}

		n.burstMax = max(n.burstMax, latency)
		n.burstLen++
		n.burstBudget--
		if n.burstBudget <= 0 {
			s.flushBurst(n)
		}
		s.segCount++
		if s.segCount >= segmentConsumptions {
			cur := s.totalBreakdown()
			s.res.SegmentCycles = append(s.res.SegmentCycles, cur-s.prevTotal)
			s.prevTotal = cur
			s.segCount = 0
		}
	}
}

// checkArrivals simulates tr with p and with the map reference, and
// returns the reference (for its counts) and the first difference in the
// reported coverage, hidden latency, segment cycles, breakdown or TSE
// result.
func checkArrivals(tr *trace.Trace, p Params) (*refSim, error) {
	got, err := Simulate(tr, p)
	if err != nil {
		return nil, err
	}
	r, err := newRefSim(p)
	if err != nil {
		return nil, err
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		r.step(e.Kind, e.Node, e.Block)
	}
	want := r.finish()
	switch {
	case got.FullCovered != want.FullCovered || got.PartialCovered != want.PartialCovered:
		return r, fmt.Errorf("full/partial covered %d/%d, reference %d/%d", got.FullCovered, got.PartialCovered, want.FullCovered, want.PartialCovered)
	case got.PartialLatencyHidden != want.PartialLatencyHidden:
		return r, fmt.Errorf("partial latency hidden %v, reference %v", got.PartialLatencyHidden, want.PartialLatencyHidden)
	case !reflect.DeepEqual(got.SegmentCycles, want.SegmentCycles):
		return r, fmt.Errorf("segment cycles %v, reference %v", got.SegmentCycles, want.SegmentCycles)
	case got.Breakdown != want.Breakdown || got.Consumptions != want.Consumptions || got.MeasuredMLP != want.MeasuredMLP:
		return r, fmt.Errorf("result %+v, reference %+v", got, want)
	case !reflect.DeepEqual(got.TSE, want.TSE):
		return r, fmt.Errorf("TSE result %+v, reference %+v", got.TSE, want.TSE)
	}
	return r, nil
}

// TestArrivalsMatchMapReference checks the simulator against the map
// reference on every workload at 4 and 16 nodes, with the paper's SVB, an
// SVB of 4 blocks (below every workload's lookahead, so a consumption can
// evict blocks it streamed itself) and an unlimited SVB. It logs each run's
// partial hits split into head-of-stream and steady-state arrivals, and
// asserts nothing about that split.
func TestArrivalsMatchMapReference(t *testing.T) {
	var partial, renamed uint64
	for _, nodes := range []int{4, 16} {
		for _, name := range workload.AllNames() {
			spec, _ := workload.ByName(name)
			gen := spec.New(workload.Config{Nodes: nodes, Seed: 5, Scale: 0.05})
			tr, err := coherence.New(coherence.Config{Nodes: nodes, Geometry: mem.DefaultGeometry()}).RunFrom(gen.Emit)
			if err != nil {
				t.Fatal(err)
			}
			for _, svb := range []int{32, 4, 0} {
				t.Run(fmt.Sprintf("%s/nodes=%d/svb=%d", name, nodes, svb), func(t *testing.T) {
					p := baseParams(nodes, gen.Timing())
					cfg := tse.DefaultConfig()
					cfg.Nodes, cfg.Lookahead, cfg.SVBEntries = nodes, gen.Timing().Lookahead, svb
					p.TSE = &cfg
					r, err := checkArrivals(tr, p)
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("partial hits: %d head-of-stream, %d steady-state, of %d covered",
						r.headPartial, r.steadyPartial, r.res.FullCovered+r.res.PartialCovered)
					partial += r.headPartial + r.steadyPartial
					if svb == 4 {
						renamed += r.renamed
					}
				})
			}
		}
	}
	if partial == 0 || renamed == 0 {
		t.Fatalf("%d partial hits, %d streamed slots taken over in the same consumption: the comparison covers neither", partial, renamed)
	}
}

// FuzzTimingArrivals checks the simulator against the map reference on
// fuzzed traces and configurations. The first four bytes pick the node
// count (1–8), the SVB (unlimited, 1, 2, 4 or 32 blocks), the lookahead
// (1–8) and the stream queues (1–4) with one or two compared streams; the
// rest are events, two bytes each (kind and node, block < 32), replayed
// three times so streams recur. The profile's short gaps between
// consumptions make partial hits common.
func FuzzTimingArrivals(f *testing.F) {
	events := []byte{1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 0, 3, 5, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5}
	f.Add(append([]byte{3, 2, 3, 2}, events...))
	f.Add(append([]byte{1, 0, 7, 5}, events...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nodes := int(data[0]%8) + 1
		prof := workload.TimingProfile{BusyFraction: 0.05, OtherStallFraction: 0.05, CoherentStallFraction: 0.90, MLP: 1.5, Lookahead: int(data[2]%8) + 1}
		p := tseParams(nodes, prof)
		p.TSE.SVBEntries = []int{0, 1, 2, 4, 32}[data[1]%5]
		p.TSE.StreamQueues = int(data[3]%4) + 1
		p.TSE.ComparedStreams = int(data[3]/4%2) + 1
		tr := &trace.Trace{}
		for range 3 {
			for i := 4; i+1 < len(data); i += 2 {
				e := trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(int(data[i]/2) % nodes), Block: mem.BlockAddr(data[i+1]%32) * 64}
				if data[i]%2 == 0 {
					e.Kind = trace.KindWrite
				}
				tr.Append(e)
			}
		}
		if _, err := checkArrivals(tr, p); err != nil {
			t.Fatal(err)
		}
	})
}
