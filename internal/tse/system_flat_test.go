package tse

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// streamingEvents returns a seeded event stream over nodes: most events are
// consumptions that walk shared block sequences (so streams form and
// recur), the rest are noise consumptions and writes, which invalidate
// blocks the sequences stream.
func streamingEvents(nodes, n int, seed int64) []trace.Event {
	const sequences, seqLen, universe = 12, 24, 400
	rng := rand.New(rand.NewSource(seed))
	randomBlock := func() mem.BlockAddr { return mem.BlockAddr(rng.Intn(universe)) * 64 }
	seqs := make([][]mem.BlockAddr, sequences)
	for i := range seqs {
		for j := 0; j < seqLen; j++ {
			seqs[i] = append(seqs[i], randomBlock())
		}
	}
	type cursor struct{ seq, pos int }
	cur := make([]cursor, nodes)
	for i := range cur {
		cur[i].pos = seqLen
	}
	events := make([]trace.Event, 0, n)
	for len(events) < n {
		node := rng.Intn(nodes)
		e := trace.Event{Kind: trace.KindConsumption, Node: mem.NodeID(node)}
		switch r := rng.Intn(10); {
		case r == 0:
			e.Kind, e.Block = trace.KindWrite, randomBlock()
		case r == 1:
			e.Block = randomBlock()
		default:
			c := &cur[node]
			if c.pos == seqLen {
				c.seq, c.pos = rng.Intn(sequences), 0
			}
			e.Block = seqs[c.seq][c.pos]
			c.pos++
		}
		events = append(events, e)
	}
	return events
}

// heldBlocks returns the blocks an SVB holds.
func heldBlocks(s *SVB) []mem.BlockAddr {
	if s.capacity == 0 {
		return slices.Collect(maps.Keys(s.entries))
	}
	out := make([]mem.BlockAddr, len(s.slots))
	for i, e := range s.slots {
		out[i] = e.block
	}
	return out
}

// checkHolders reports whether the System's holder masks name exactly the
// nodes whose SVB contains each block.
func checkHolders(t *testing.T, s *System, event int) {
	t.Helper()
	want := make(map[mem.BlockAddr]uint64)
	for n := range s.engines {
		svb := s.Engine(mem.NodeID(n)).SVB()
		for _, b := range heldBlocks(svb) {
			if !svb.Contains(b) {
				t.Fatalf("event %d: node %d holds %#x but Contains is false", event, n, b)
			}
			want[b] |= 1 << n
		}
	}
	if !maps.Equal(s.holders, want) {
		t.Fatalf("event %d: holder masks %v, want %v", event, s.holders, want)
	}
}

// flatStateConfigs are a bounded configuration, small enough that SVBs
// evict and CMOBs wrap, and an unlimited one.
func flatStateConfigs(nodes int) map[string]Config {
	bounded := DefaultConfig()
	bounded.Nodes, bounded.SVBEntries, bounded.CMOBEntries, bounded.StreamQueues, bounded.Lookahead = nodes, 8, 64, 4, 4
	unlimited := bounded
	unlimited.SVBEntries, unlimited.CMOBEntries = 0, 0
	return map[string]Config{"bounded": bounded, "unlimited": unlimited}
}

// TestSystemHolderMaskAndWriteAllTwin checks, after every event, that the
// holder masks match the SVBs' contents, and that a System whose writes
// visit only holders finishes deep-equal to a twin whose writes call
// Engine.Write on every node.
func TestSystemHolderMaskAndWriteAllTwin(t *testing.T) {
	for _, nodes := range []int{1, 4, 16, 64} {
		for name, cfg := range flatStateConfigs(nodes) {
			t.Run(fmt.Sprintf("nodes=%d/%s", nodes, name), func(t *testing.T) {
				s, twin := NewSystem(cfg), NewSystem(cfg)
				for i, e := range streamingEvents(nodes, 4000+100*nodes, int64(nodes)) {
					if e.Kind == trace.KindWrite {
						s.Write(e)
						for n := 0; n < nodes; n++ {
							twin.Engine(mem.NodeID(n)).Write(e.Block)
						}
					} else if got, want := s.Consumption(e), twin.Consumption(e); got != want {
						t.Fatalf("event %d: Consumption = %v, twin %v", i, got, want)
					}
					checkHolders(t, s, i)
				}
				got, want := s.Finish(), twin.Finish()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Finish = %+v, twin %+v", got, want)
				}
				if got.Covered == 0 || got.Traffic.DiscardedDataBytes == 0 {
					t.Fatalf("events streamed nothing: %+v", got)
				}
				if len(s.holders) != 0 {
					t.Fatalf("holder masks left after Finish: %v", s.holders)
				}
			})
		}
	}
}

// TestSystemDoesNotAllocate pins the per-event path of a warmed System with
// a bounded SVB and CMOB at zero heap allocations.
func TestSystemDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CMOBEntries = 2048
	s := NewSystem(cfg)
	events := streamingEvents(cfg.Nodes, 5000, 1)
	run := func() {
		for _, e := range events {
			if e.Kind == trace.KindWrite {
				s.Write(e)
			} else {
				s.Consumption(e)
			}
		}
	}
	for i := 0; i < 20; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("%v allocations per %d events, want 0", allocs, len(events))
	}
	ls := s.Probe()
	t.Logf("coverage %.1f%%, %d streams allocated in total", 100*ls.Coverage(), ls.StreamsAllocated)
}
