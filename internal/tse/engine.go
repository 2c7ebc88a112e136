package tse

import (
	"tsm/internal/directory"
	"tsm/internal/mem"
	"tsm/internal/stats"
)

// CMOBReader supplies stream addresses from another node's CMOB: it returns
// up to n addresses following offset in node's CMOB, plus the offset of the
// last address returned. The System wires this to the per-node CMOBs and
// charges interconnect traffic for the transfer.
type CMOBReader func(node mem.NodeID, offset uint64, n int) ([]mem.BlockAddr, uint64)

// EngineStats accumulates per-node stream-engine statistics.
type EngineStats struct {
	// Consumptions is the number of consumption events presented.
	Consumptions uint64
	// Covered is the number of consumptions satisfied by the SVB.
	Covered uint64
	// StreamsAllocated counts stream-queue allocations.
	StreamsAllocated uint64
	// StreamsResolved counts stalled queues reselected by a matching miss.
	StreamsResolved uint64
	// StreamsStalled counts head-divergence stall events.
	StreamsStalled uint64
	// BlocksFetched counts blocks streamed into the SVB.
	BlocksFetched uint64
	// RefillRequests counts CMOB refill requests for active streams.
	RefillRequests uint64
	// AddressesReceived counts stream addresses delivered to this node.
	AddressesReceived uint64
}

// Engine is the per-node stream engine plus SVB (the grey components of
// Figure 2 other than the CMOB/directory, which the System owns).
type Engine struct {
	node    mem.NodeID
	cfg     Config
	svb     *SVB
	queues  []*streamQueue
	nextQID int
	clock   uint64
	read    CMOBReader
	stats   EngineStats
	// streamLengths records the number of SVB hits each retired stream
	// produced (Figure 13).
	streamLengths *stats.Histogram
	// onFetch is called for every block streamed into the SVB so the
	// System can charge data traffic for it.
	onFetch func(block mem.BlockAddr)
	// onRefill is called for every refill request (source node, addresses
	// transferred) so the System can charge address-stream traffic.
	onRefill func(source mem.NodeID, addresses int)
}

// NewEngine builds a stream engine for one node. read supplies remote CMOB
// contents; it must not be nil.
func NewEngine(node mem.NodeID, cfg Config, read CMOBReader) *Engine {
	e := &Engine{
		node:          node,
		cfg:           cfg,
		svb:           NewSVB(cfg.SVBEntries),
		read:          read,
		streamLengths: stats.NewHistogram(),
	}
	return e
}

// SVB exposes the node's streamed value buffer.
func (e *Engine) SVB() *SVB { return e.svb }

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// StreamLengths returns the histogram of hits per retired stream.
func (e *Engine) StreamLengths() *stats.Histogram { return e.streamLengths }

// SetFetchHandler registers a callback invoked for each streamed block.
func (e *Engine) SetFetchHandler(fn func(mem.BlockAddr)) { e.onFetch = fn }

// SetRefillHandler registers a callback invoked for each CMOB address
// transfer into this engine.
func (e *Engine) SetRefillHandler(fn func(mem.NodeID, int)) { e.onRefill = fn }

// Consumption processes a coherent read miss by this node. ptrs are the
// CMOB pointers the directory returned for the block (newest first).
// It reports whether the SVB already held the block (the consumption is
// covered/eliminated).
func (e *Engine) Consumption(b mem.BlockAddr, ptrs []directory.CMOBPointer) bool {
	e.stats.Consumptions++
	e.clock++
	if qid, ok := e.svb.Hit(b); ok {
		e.stats.Covered++
		if q := e.findQueue(qid); q != nil {
			q.hits++
			if q.outstanding > 0 {
				q.outstanding--
			}
			q.lru = e.clock
			e.fill(q)
		}
		return true
	}

	// The miss did not hit the SVB. First check whether it matches a
	// stalled stream: that identifies which of the diverging histories the
	// processor is actually following (Section 3.3).
	for _, q := range e.queues {
		if !q.active || !q.stalled {
			continue
		}
		if idx, pos := q.matchStalledHead(b, e.cfg.Lookahead); idx >= 0 {
			q.selectFIFO(idx)
			q.fifos[0].dropThrough(pos)
			q.stalled = false
			q.lru = e.clock
			e.stats.StreamsResolved++
			e.fill(q)
			return false
		}
	}

	// Next check whether it matches an upcoming address of an active
	// stream (the processor ran slightly ahead of streaming, or skipped a
	// few recorded blocks such as another consumer's interleaved noise);
	// resynchronise that stream rather than allocating a duplicate. The
	// tolerated window is the stream lookahead, mirroring the SVB's role
	// as a window over small deviations (Section 3.3).
	for _, q := range e.queues {
		if !q.active || q.stalled {
			continue
		}
		if idx, pos := q.matchStalledHead(b, e.cfg.Lookahead); idx >= 0 {
			q.fifos[idx].dropThrough(pos)
			// Drop the skipped prefix from the other FIFOs too so heads
			// stay comparable.
			for j, f := range q.fifos {
				if j == idx {
					continue
				}
				if p := f.contains(b); p >= 0 {
					f.dropThrough(p)
				}
			}
			q.lru = e.clock
			e.fill(q)
			return false
		}
	}

	// Otherwise allocate a new stream for this head if the directory knows
	// recent consumers.
	e.allocate(b, ptrs)
	return false
}

// Write invalidates any streamed copy of the block (writes by any node,
// including this one, reach the SVB).
func (e *Engine) Write(b mem.BlockAddr) {
	e.svb.Invalidate(b)
}

// findQueue returns the queue with the given id, if it is still active.
func (e *Engine) findQueue(id int) *streamQueue {
	for _, q := range e.queues {
		if q.active && q.id == id {
			return q
		}
	}
	return nil
}

// allocate sets up a stream queue for a stream head using the directory's
// CMOB pointers, fetching the initial addresses from the source CMOBs.
func (e *Engine) allocate(head mem.BlockAddr, ptrs []directory.CMOBPointer) {
	if len(ptrs) == 0 {
		return
	}
	limit := e.cfg.ComparedStreams
	if limit > len(ptrs) {
		limit = len(ptrs)
	}
	var fifos []*streamFIFO
	for _, p := range ptrs[:limit] {
		if !p.Valid {
			continue
		}
		addrs, last := e.read(p.Node, p.Offset, e.cfg.fifoCapacity())
		if e.onRefill != nil && len(addrs) > 0 {
			e.onRefill(p.Node, len(addrs))
		}
		e.stats.AddressesReceived += uint64(len(addrs))
		if len(addrs) == 0 {
			continue
		}
		fifos = append(fifos, &streamFIFO{
			source: streamSource{node: p.Node, nextOffset: last},
			addrs:  addrs,
		})
	}
	if len(fifos) == 0 {
		return
	}
	q := e.acquireQueue()
	q.head = head
	q.fifos = fifos
	q.stalled = false
	q.outstanding = 0
	q.hits = 0
	q.fetched = 0
	q.lru = e.clock
	q.active = true
	e.stats.StreamsAllocated++
	e.fill(q)
}

// acquireQueue returns a free stream queue, retiring the least recently used
// one if all are busy (avoiding unbounded growth while still letting useful
// streams persist — the stream-thrashing concern of Section 5.3).
func (e *Engine) acquireQueue() *streamQueue {
	for _, q := range e.queues {
		if !q.active {
			return q
		}
	}
	if len(e.queues) < e.cfg.StreamQueues {
		q := &streamQueue{id: e.nextQID}
		e.nextQID++
		e.queues = append(e.queues, q)
		return q
	}
	victim := e.queues[0]
	for _, q := range e.queues[1:] {
		if q.lru < victim.lru {
			victim = q
		}
	}
	e.retire(victim)
	// Re-use the slot under a fresh id so stale SVB entries do not
	// advance the new stream.
	victim.id = e.nextQID
	e.nextQID++
	return victim
}

// retire records the stream's length and deactivates it.
func (e *Engine) retire(q *streamQueue) {
	if !q.active {
		return
	}
	if q.fetched > 0 || q.hits > 0 {
		e.streamLengths.Add(int(q.hits))
	}
	q.active = false
	q.fifos = nil
}

// fill streams blocks for a queue until the configured lookahead is
// outstanding in the SVB, the FIFO heads diverge, or the sources are
// exhausted.
func (e *Engine) fill(q *streamQueue) {
	for q.outstanding < e.cfg.Lookahead {
		e.refill(q)
		agreed, agree, any := q.headsAgree()
		if !any {
			if len(q.liveFIFOs()) == 0 {
				e.retire(q)
			}
			return
		}
		if !agree {
			if !q.stalled {
				q.stalled = true
				e.stats.StreamsStalled++
			}
			return
		}
		q.popAgreed(agreed)
		// Do not re-stream a block the SVB already holds.
		if !e.svb.Contains(agreed) {
			e.svb.Insert(agreed, q.id)
			q.outstanding++
			q.fetched++
			e.stats.BlocksFetched++
			if e.onFetch != nil {
				e.onFetch(agreed)
			}
		}
	}
}

// refill tops up any FIFO that has fallen below half of its capacity by
// reading further addresses from its source CMOB (Section 3.3: "When a
// stream queue is half empty, the stream engine requests additional
// addresses from the source CMOB").
func (e *Engine) refill(q *streamQueue) {
	capacity := e.cfg.fifoCapacity()
	for _, f := range q.fifos {
		if f.source.exhausted || len(f.addrs) > capacity/2 {
			continue
		}
		want := capacity - len(f.addrs)
		addrs, last := e.read(f.source.node, f.source.nextOffset, want)
		e.stats.RefillRequests++
		if len(addrs) == 0 {
			f.source.exhausted = true
			continue
		}
		if e.onRefill != nil {
			e.onRefill(f.source.node, len(addrs))
		}
		e.stats.AddressesReceived += uint64(len(addrs))
		f.addrs = append(f.addrs, addrs...)
		f.source.nextOffset = last
	}
}

// Finish retires every live stream (recording their lengths) and flushes the
// SVB so unconsumed blocks count as discards.
func (e *Engine) Finish() {
	for _, q := range e.queues {
		e.retire(q)
	}
	e.svb.Flush()
}
