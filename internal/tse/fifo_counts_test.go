//go:build !race

// The recount after every event visits every engine's FIFOs, which takes
// about 2 s in a normal build and over a minute under the race detector;
// the test runs on one goroutine, so the race build leaves it out.

package tse

import (
	"fmt"
	"testing"

	"tsm/internal/trace"
)

// missScan is what an SVB miss to id finds in an engine before it is
// processed: whether a stalled or an active queue's lookahead window
// matches it, and how many FIFOs the matching stalled queue would discard.
type missScan struct {
	stalled, active bool
	discards        int
}

func scanMiss(eng *Engine, id BlockID) missScan {
	var m missScan
	for _, q := range eng.queues {
		if !q.active {
			continue
		}
		if idx, _ := q.matchStalledHead(id, eng.cfg.Lookahead); idx >= 0 {
			if q.stalled && !m.stalled {
				m.stalled, m.discards = true, len(q.fifos)-1
			} else if !q.stalled {
				m.active = true
			}
		}
	}
	return m
}

// fifoCountConfigs are flatStateConfigs plus unconstrained configurations:
// 64 stream queues, unlimited SVB and CMOB, 1–4 compared streams and
// lookaheads of 1 and 24.
func fifoCountConfigs(nodes int) map[string]Config {
	configs := flatStateConfigs(nodes)
	for streams := 1; streams <= 4; streams++ {
		for _, lookahead := range []int{1, 24} {
			cfg := DefaultConfig()
			cfg.Nodes, cfg.SVBEntries, cfg.CMOBEntries, cfg.StreamQueues = nodes, 0, 0, 64
			cfg.ComparedStreams, cfg.Lookahead = streams, lookahead
			configs[fmt.Sprintf("unconstrained-c%d-l%d", streams, lookahead)] = cfg
		}
	}
	return configs
}

// TestFIFOCountsMatchRecount checks, after every event, that each engine's
// per-block FIFO counts equal a recount of its active queues' FIFO entries,
// and that every count is zero after Finish. Before each SVB miss it scans
// the queues itself: a miss whose block has count 0 must match no window
// (the engine skips the scan), and a stalled queue's window must match
// exactly when the engine resolves a stall. Across node counts each
// configuration must take both branches, some misses skipping the scan and
// some with a nonzero count matching a stalled or an active queue, and a
// configuration with three or more compared streams must resolve a stall
// that discards at least two FIFOs.
func TestFIFOCountsMatchRecount(t *testing.T) {
	type tally struct{ streams, skipped, matched, discards int }
	tallies := make(map[string]*tally)
	var recount []uint16
	for _, nodes := range []int{1, 4, 16, 64} {
		for name, cfg := range fifoCountConfigs(nodes) {
			tl := tallies[name]
			if tl == nil {
				tl = &tally{streams: cfg.ComparedStreams}
				tallies[name] = tl
			}
			s := NewSystem(cfg)
			for i, e := range streamingEvents(nodes, 2000+40*nodes, int64(nodes)) {
				if e.Kind == trace.KindWrite {
					s.WriteBlock(e.Block)
					checkFIFOCounts(t, s, i, &recount)
					continue
				}
				eng := s.Engine(e.Node)
				id, known := s.ptrs.index[e.Block]
				miss := !known || !eng.svb.Contains(uint64(id))
				var m missScan
				if known && miss {
					m = scanMiss(eng, id)
				}
				if miss && (!known || !eng.inFIFO.holds(id)) {
					if m.stalled || m.active {
						t.Fatalf("%s nodes=%d: event %d: id %d has count 0 but matches a window", name, nodes, i, id)
					}
					tl.skipped++
				} else if m.stalled || m.active {
					tl.matched++
					if m.stalled {
						tl.discards = max(tl.discards, m.discards)
					}
				}
				resolved := eng.Stats().StreamsResolved
				if covered := s.Consume(e.Node, e.Block); covered == miss {
					t.Fatalf("%s nodes=%d: event %d: covered %v, SVB held the block %v", name, nodes, i, covered, !miss)
				}
				if got := eng.Stats().StreamsResolved - resolved; (got != 0) != m.stalled {
					t.Fatalf("%s nodes=%d: event %d: %d stalls resolved, a stalled window matched %v", name, nodes, i, got, m.stalled)
				}
				checkFIFOCounts(t, s, i, &recount)
			}
			s.Finish()
			checkFIFOCounts(t, s, -1, &recount)
		}
	}
	for name, tl := range tallies {
		t.Logf("%s: %d misses skipped the scan, %d matched a window, at most %d FIFOs discarded", name, tl.skipped, tl.matched, tl.discards)
		if tl.skipped == 0 || tl.matched == 0 {
			t.Errorf("%s: %d misses skipped the scan and %d matched a window; want both", name, tl.skipped, tl.matched)
		}
		if tl.streams >= 3 && tl.discards < 2 {
			t.Errorf("%s: no resolved stall discarded more than one FIFO", name)
		}
	}
}
