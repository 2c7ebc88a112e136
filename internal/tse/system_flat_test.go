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

// checkHolders reports whether the System's holder masks name exactly the
// nodes whose SVB contains each block, one mask per id.
func checkHolders(t *testing.T, s *System, event int) {
	t.Helper()
	want := make([]uint64, len(s.ptrs.index))
	for n := range s.engines {
		svb := s.Engine(mem.NodeID(n)).SVB()
		for _, e := range svb.slots {
			if !svb.Contains(e.key) {
				t.Fatalf("event %d: node %d holds %#x but Contains is false", event, n, e.key)
			}
			want[e.key] |= 1 << n
		}
		if err := checkPositions(svb); err != nil {
			t.Fatalf("event %d: node %d: %v", event, n, err)
		}
	}
	if !slices.Equal(s.holders, want) {
		t.Fatalf("event %d: holder masks %v, want %v", event, s.holders, want)
	}
}

// checkFIFOCounts reports whether every engine's FIFO counts equal a
// recount of the FIFO entries in its active queues (after Finish none is
// active, so every count must be zero), and whether no count slice is
// longer than the System's id count. recount is scratch space the caller
// keeps across calls.
func checkFIFOCounts(t *testing.T, s *System, event int, recount *[]uint16) {
	t.Helper()
	ids := len(s.holders)
	for n, eng := range s.engines {
		if len(eng.inFIFO) > ids {
			t.Fatalf("event %d: node %d keeps %d FIFO counts for %d ids", event, n, len(eng.inFIFO), ids)
		}
		want := append((*recount)[:0], make([]uint16, ids)...)
		for _, q := range eng.queues {
			if !q.active {
				continue
			}
			for _, f := range q.fifos {
				for _, b := range f.addrs {
					want[b]++
				}
			}
		}
		for id, w := range want {
			var got uint16
			if id < len(eng.inFIFO) {
				got = eng.inFIFO[id]
			}
			if got != w {
				t.Fatalf("event %d: node %d counts id %d in %d FIFO entries, recount %d", event, n, id, got, w)
			}
		}
		*recount = want
	}
}

// flatStateConfigs are a bounded configuration, small enough that SVBs
// evict and CMOBs wrap, an unlimited one, and the bounded one with three
// compared streams, so a resolved stall can discard two FIFOs.
func flatStateConfigs(nodes int) map[string]Config {
	bounded := DefaultConfig()
	bounded.Nodes, bounded.SVBEntries, bounded.CMOBEntries, bounded.StreamQueues, bounded.Lookahead = nodes, 8, 64, 4, 4
	unlimited := bounded
	unlimited.SVBEntries, unlimited.CMOBEntries = 0, 0
	compared3 := bounded
	compared3.ComparedStreams = 3
	return map[string]Config{"bounded": bounded, "unlimited": unlimited, "compared3": compared3}
}

// writeAll is the twin's write: Engine.Write on every node, for a block
// the System has named (a block never consumed is held nowhere).
func writeAll(s *System, block mem.BlockAddr) {
	id, ok := s.ptrs.index[block]
	if !ok {
		return
	}
	for n := range s.engines {
		s.engines[n].Write(id)
	}
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
						s.WriteBlock(e.Block)
						writeAll(twin, e.Block)
					} else if got, want := s.Consume(e.Node, e.Block), twin.Consume(e.Node, e.Block); got != want {
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
				if i := slices.IndexFunc(s.holders, func(m uint64) bool { return m != 0 }); i >= 0 {
					t.Fatalf("holder mask of id %d left after Finish: %#x", i, s.holders[i])
				}
			})
		}
	}
}

// FuzzSystemTwin feeds fuzzed events, three bytes each (kind, node < 8,
// block < 64), to a System and to a twin whose writes call Engine.Write on
// every node, in each flatStateConfigs configuration, and checks that both
// report the same coverage per event and finish deep-equal, and that the
// System's FIFO counts equal a recount of its FIFO entries after every
// event and are all zero after Finish.
func FuzzSystemTwin(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 0, 2, 1, 1, 1, 1, 1, 2, 0, 0, 1, 1, 2, 1})
	f.Add([]byte{1, 3, 7, 1, 3, 8, 1, 3, 9, 1, 5, 7, 0, 2, 8, 1, 5, 8, 1, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var recount []uint16
		for name, cfg := range flatStateConfigs(8) {
			s, twin := NewSystem(cfg), NewSystem(cfg)
			for i := 0; i+2 < len(data); i += 3 {
				e := trace.Event{Node: mem.NodeID(data[i+1] % 8), Block: mem.BlockAddr(data[i+2]%64) * 64}
				if data[i]%2 == 0 {
					e.Kind = trace.KindWrite
					s.WriteBlock(e.Block)
					writeAll(twin, e.Block)
				} else {
					e.Kind = trace.KindConsumption
					if got, want := s.Consume(e.Node, e.Block), twin.Consume(e.Node, e.Block); got != want {
						t.Fatalf("%s: event %d: Consumption = %v, twin %v", name, i/3, got, want)
					}
				}
				checkFIFOCounts(t, s, i/3, &recount)
			}
			if got, want := s.Finish(), twin.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Finish = %+v, twin %+v", name, got, want)
			}
			checkFIFOCounts(t, s, len(data)/3, &recount)
		}
	})
}

// TestEngineFetchedIsSVBGain checks, after every consumption, that the
// consuming node's Engine.Fetched names the SVB slots of the blocks it
// streamed, in stream order: the SVB stamps each insert with a rising
// clock, so the k-th insert of the consumption has the consumption's first
// stamp plus k, and a slot named again (a later block evicted an earlier
// one in place) holds the block of its last naming. The slots named are
// exactly those whose entry is new, and there are as many names as the
// engine's BlocksFetched delta. Every named slot is then stamped, and a
// covered consumption's HitStamp must be the stamp its block's slot held.
// The "small" configuration's SVB is shorter than the lookahead, so a
// consumption can evict its own blocks.
func TestEngineFetchedIsSVBGain(t *testing.T) {
	configs := flatStateConfigs(4)
	small := configs["bounded"]
	small.SVBEntries = 2
	configs["small"] = small
	for name, cfg := range configs {
		s := NewSystem(cfg)
		streamed, renamed, hits := 0, 0, 0
		for i, e := range streamingEvents(cfg.Nodes, 6000, 7) {
			if e.Kind == trace.KindWrite {
				s.WriteBlock(e.Block)
				continue
			}
			eng := s.Engine(e.Node)
			clock, fetchedBefore := eng.svb.clock, eng.Stats().BlocksFetched
			var held uint64
			if id, ok := s.ptrs.index[e.Block]; ok {
				if slot := eng.svb.find(uint64(id)); slot >= 0 {
					held = stampAt(eng.svb, slot)
				}
			}
			if covered := s.Consume(e.Node, e.Block); covered {
				if got := eng.HitStamp(); got != held {
					t.Fatalf("%s: event %d node %d: HitStamp %d, slot held %d", name, i, e.Node, got, held)
				}
				hits++
			}
			got := eng.Fetched()
			last := make(map[int]int)
			for k, slot := range got {
				if slot < 0 || slot >= eng.svb.Len() {
					t.Fatalf("%s: event %d node %d: slot %d of %d", name, i, e.Node, slot, eng.svb.Len())
				}
				last[slot] = k
			}
			for k, slot := range got {
				if lru, want := eng.svb.slots[slot].lru, clock+1+uint64(last[slot]); lru != want {
					t.Fatalf("%s: event %d node %d: Fetched[%d] = slot %d with stamp %d, want %d", name, i, e.Node, k, slot, lru, want)
				}
				eng.svb.Stamp(slot, uint64(i)<<8|uint64(k+1))
			}
			gained := 0
			for _, se := range eng.svb.slots {
				if se.lru > clock {
					gained++
				}
			}
			if gained != len(last) {
				t.Fatalf("%s: event %d node %d: SVB gained %d entries, Fetched names %d slots", name, i, e.Node, gained, len(last))
			}
			if delta := eng.Stats().BlocksFetched - fetchedBefore; uint64(len(got)) != delta {
				t.Fatalf("%s: event %d node %d: %d fetched, BlocksFetched rose by %d", name, i, e.Node, len(got), delta)
			}
			streamed += len(got)
			renamed += len(got) - len(last)
		}
		if streamed == 0 || hits == 0 {
			t.Fatalf("%s: events streamed %d blocks and hit %d", name, streamed, hits)
		}
		if name == "small" && renamed == 0 {
			t.Fatalf("%s: no consumption evicted a block it streamed", name)
		}
	}
}

// TestBlockIDsDenseInFirstSeenOrder checks that a System names blocks 0, 1,
// 2, … in the order of their first consumption, and that writes name none.
func TestBlockIDsDenseInFirstSeenOrder(t *testing.T) {
	cfg := flatStateConfigs(16)["bounded"]
	s := NewSystem(cfg)
	want := make(map[mem.BlockAddr]BlockID)
	for i, e := range streamingEvents(cfg.Nodes, 6000, 3) {
		if e.Kind == trace.KindWrite {
			s.WriteBlock(e.Block)
			continue
		}
		wantID, seen := want[e.Block]
		if !seen {
			wantID = BlockID(len(want))
			want[e.Block] = wantID
		}
		s.Consume(e.Node, e.Block)
		if id := s.ptrs.index[e.Block]; id != wantID {
			t.Fatalf("event %d: block %#x got id %d, want %d", i, e.Block, id, wantID)
		}
	}
	if !maps.Equal(s.ptrs.index, want) {
		t.Fatalf("%d ids assigned, want %d (one per consumed block)", len(s.ptrs.index), len(want))
	}
	if len(s.holders) != len(want) || len(s.ptrs.ptrs) != len(want)*cfg.ComparedStreams {
		t.Fatalf("%d holder masks and %d pointer slots for %d ids", len(s.holders), len(s.ptrs.ptrs), len(want))
	}
}

// TestSystemInvariantUnderBlockRemap: ids are only compared for equality,
// so a System fed a trace whose block addresses pass through a bijection
// finishes deep-equal to one fed the original, per event and by columns.
func TestSystemInvariantUnderBlockRemap(t *testing.T) {
	const mask = 0x5a5a_0000_dead_beef
	for name, cfg := range flatStateConfigs(16) {
		events := streamingEvents(cfg.Nodes, 8000, 5)
		remapped := slices.Clone(events)
		for i := range remapped {
			remapped[i].Block ^= mask
		}
		want := NewSystem(cfg).Run(&trace.Trace{Events: events})
		if want.Covered == 0 {
			t.Fatalf("%s: events streamed nothing: %+v", name, want)
		}
		if got := NewSystem(cfg).Run(&trace.Trace{Events: remapped}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: remapped per-event run %+v, want %+v", name, got, want)
		}
		kinds := make([]trace.EventKind, len(remapped))
		nodes := make([]mem.NodeID, len(remapped))
		blocks := make([]mem.BlockAddr, len(remapped))
		for i, e := range remapped {
			kinds[i], nodes[i], blocks[i] = e.Kind, e.Node, e.Block
		}
		s := NewSystem(cfg)
		for lo := 0; lo < len(kinds); lo += 1000 {
			hi := min(lo+1000, len(kinds))
			s.RunColumns(kinds[lo:hi], nodes[lo:hi], blocks[lo:hi])
		}
		if got := s.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: remapped column run %+v, want %+v", name, got, want)
		}
	}
}

// TestSystemDoesNotAllocate pins the per-event path of a warmed System at
// zero heap allocations, with a bounded SVB and CMOB and with an unlimited
// SVB. Warming takes longer with 64 stream queues, which are created only
// when every existing one is busy: it runs until every block has an id and
// the SVB slots, position tables and queues have stopped growing. A stream
// length never seen before still adds a bucket to an engine's histogram
// now and then, fewer than one allocation per run. No engine's FIFO counts
// may be longer than the System's id count.
func TestSystemDoesNotAllocate(t *testing.T) {
	bounded := DefaultConfig()
	bounded.CMOBEntries = 2048
	unlimited := bounded
	unlimited.SVBEntries, unlimited.StreamQueues = 0, 64
	for name, cfg := range map[string]Config{"bounded": bounded, "unlimited": unlimited} {
		s := NewSystem(cfg)
		events := streamingEvents(cfg.Nodes, 5000, 1)
		run := func() {
			for _, e := range events {
				if e.Kind == trace.KindWrite {
					s.WriteBlock(e.Block)
				} else {
					s.Consume(e.Node, e.Block)
				}
			}
		}
		for i := 0; i < 60; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Fatalf("%s: %v allocations per %d events, want 0", name, allocs, len(events))
		}
		for n, eng := range s.engines {
			if len(eng.inFIFO) > len(s.holders) {
				t.Fatalf("%s: node %d keeps %d FIFO counts for %d ids", name, n, len(eng.inFIFO), len(s.holders))
			}
		}
		ls := s.Probe()
		t.Logf("%s: coverage %.1f%%, %d streams allocated in total", name, 100*ls.Coverage(), ls.StreamsAllocated)
	}
}

// TestFindQueueMatchesScan checks the O(1) queue lookup against a scan of
// every queue, for each queue id an SVB entry carries and for the ids on
// either side of each live queue's, with few queues so LRU replacement
// retires streams whose blocks are still in the SVB. It also checks that
// every queue's id names its slot and that ids are unique.
func TestFindQueueMatchesScan(t *testing.T) {
	for name, cfg := range flatStateConfigs(4) {
		cfg.StreamQueues = 2
		s := NewSystem(cfg)
		replaced := 0
		prev := make([][]int, cfg.Nodes)
		for i, e := range streamingEvents(cfg.Nodes, 6000, 9) {
			if e.Kind == trace.KindWrite {
				s.WriteBlock(e.Block)
			} else {
				s.Consume(e.Node, e.Block)
			}
			for n, eng := range s.engines {
				var ids []int
				for slot, q := range eng.queues {
					if q.id%cfg.StreamQueues != slot || slices.Contains(ids, q.id) {
						t.Fatalf("%s: event %d node %d: queue %d has id %d", name, i, n, slot, q.id)
					}
					if slot < len(prev[n]) && q.id != prev[n][slot] {
						replaced++
					}
					ids = append(ids, q.id, q.id-cfg.StreamQueues, q.id+cfg.StreamQueues)
				}
				prev[n] = prev[n][:0]
				for _, q := range eng.queues {
					prev[n] = append(prev[n], q.id)
				}
				for _, se := range eng.svb.slots {
					ids = append(ids, se.queue)
				}
				for _, id := range ids {
					var want *streamQueue
					for _, q := range eng.queues {
						if q.active && q.id == id {
							want = q
						}
					}
					if got := eng.findQueue(id); got != want {
						t.Fatalf("%s: event %d node %d: findQueue(%d) = %p, scan %p", name, i, n, id, got, want)
					}
				}
			}
		}
		if replaced == 0 {
			t.Fatalf("%s: no queue was replaced", name)
		}
	}
}
