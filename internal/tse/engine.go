package tse

import "tsm/internal/mem"

// CMOBReader supplies a stream from another node's CMOB: it appends to dst
// up to n entries following offset in node's CMOB, and returns the extended
// slice plus the offset of the last entry appended (offset itself when it
// appends none). The System wires this to the per-node CMOBs' AppendStream.
type CMOBReader func(dst []BlockID, node mem.NodeID, offset uint64, n int) ([]BlockID, uint64)

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
	// StreamRequests counts the CMOB reads, at allocation or refill, that
	// delivered at least one address: one stream request message each.
	StreamRequests uint64
	// AddressesReceived counts stream addresses delivered to this node.
	AddressesReceived uint64
}

// Engine is the per-node stream engine plus SVB (the grey components of
// Figure 2 other than the CMOB/directory, which the System owns). It names
// blocks by BlockID, as its CMOB reader does.
type Engine struct {
	node   mem.NodeID
	cfg    Config
	svb    *SVB
	queues []*streamQueue
	// spare is a set of ComparedStreams FIFO slots that allocate reads a
	// new stream into before swapping it with the acquired queue's slots.
	spare []streamFIFO
	clock uint64
	read  CMOBReader
	stats EngineStats
	// streamLengths records the number of SVB hits each retired stream
	// produced (Figure 13).
	streamLengths *Histogram
	// fetched is the SVB slots of the blocks streamed by the current
	// consumption, in stream order (see Fetched).
	fetched []int
	// inFIFO counts, per BlockID, the entries of the active queues' FIFOs
	// that name the block.
	inFIFO fifoCounts
}

// NewEngine builds a stream engine for one node. read supplies remote CMOB
// contents; it must not be nil.
func NewEngine(node mem.NodeID, cfg Config, read CMOBReader) *Engine {
	e := &Engine{
		node:          node,
		cfg:           cfg,
		svb:           NewSVB(cfg.SVBEntries),
		spare:         make([]streamFIFO, cfg.ComparedStreams),
		read:          read,
		streamLengths: NewHistogram(),
	}
	return e
}

// SVB exposes the node's streamed value buffer.
func (e *Engine) SVB() *SVB { return e.svb }

// Stats returns a copy of the engine statistics.
func (e *Engine) Stats() EngineStats { return e.stats }

// StreamLengths returns the histogram of hits per retired stream.
func (e *Engine) StreamLengths() *Histogram { return e.streamLengths }

// Fetched returns the SVB slots of the blocks the last Consumption streamed,
// in stream order, for the owner to Stamp. A slot appears again when a later
// block of the same Consumption evicted an earlier one in place; the last
// stamp then belongs to the block the slot holds. The slice is reused by
// the next Consumption.
func (e *Engine) Fetched() []int { return e.fetched }

// HitStamp returns the stamp of the SVB entry the last covered Consumption
// hit: 0 if no owner stamped it. A Write that invalidates a block the SVB
// holds takes an entry too, so read it before the next Write.
func (e *Engine) HitStamp() uint64 { return e.svb.taken }

// Consumption processes a coherent read miss by this node. ptrs are the
// CMOB pointers the directory returned for the block (newest first).
// It reports whether the SVB already held the block (the consumption is
// covered/eliminated).
func (e *Engine) Consumption(b BlockID, ptrs []CMOBPointer) bool {
	e.stats.Consumptions++
	e.clock++
	e.fetched = e.fetched[:0]
	if qid, ok := e.svb.Hit(uint64(b)); ok {
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

	// The miss did not hit the SVB. A lookahead window is a prefix of its
	// FIFO, so a block that no FIFO holds matches no stream: allocate
	// without scanning.
	if !e.inFIFO.holds(b) {
		e.allocate(ptrs)
		return false
	}

	// First check whether it matches a stalled stream: that identifies
	// which of the diverging histories the processor is actually following
	// (Section 3.3).
	for _, q := range e.queues {
		if !q.active || !q.stalled {
			continue
		}
		if idx, pos := q.matchStalledHead(b, e.cfg.Lookahead); idx >= 0 {
			q.selectFIFO(idx, e.inFIFO)
			q.fifos[0].dropThrough(pos, e.inFIFO)
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
			q.fifos[idx].dropThrough(pos, e.inFIFO)
			// Drop the skipped prefix from the other FIFOs too so heads
			// stay comparable.
			for j := range q.fifos {
				if j == idx {
					continue
				}
				if p := q.fifos[j].contains(b); p >= 0 {
					q.fifos[j].dropThrough(p, e.inFIFO)
				}
			}
			q.lru = e.clock
			e.fill(q)
			return false
		}
	}

	// Otherwise allocate a new stream for this head if the directory knows
	// recent consumers.
	e.allocate(ptrs)
	return false
}

// Write invalidates any streamed copy of the block (writes by any node,
// including this one, reach the SVB).
func (e *Engine) Write(b BlockID) {
	e.svb.Invalidate(uint64(b))
}

// findQueue returns the queue with the given id, if it is still active. The
// id names the queue's slot, so only that slot is checked.
func (e *Engine) findQueue(id int) *streamQueue {
	if slot := id % e.cfg.StreamQueues; slot >= 0 && slot < len(e.queues) {
		if q := e.queues[slot]; q.active && q.id == id {
			return q
		}
	}
	return nil
}

// allocate sets up a stream queue for a stream head using the directory's
// CMOB pointers, fetching the initial addresses from the source CMOBs.
func (e *Engine) allocate(ptrs []CMOBPointer) {
	if len(ptrs) == 0 {
		return
	}
	limit := e.cfg.ComparedStreams
	if limit > len(ptrs) {
		limit = len(ptrs)
	}
	// Read into the spare slots first: acquiring a queue can retire an LRU
	// victim, which must not happen when no source has addresses.
	capacity := e.cfg.fifoCapacity()
	n := 0
	for _, p := range ptrs[:limit] {
		if !p.Valid {
			continue
		}
		f := &e.spare[n]
		f.reset(streamSource{node: p.Node}, capacity)
		f.addrs, f.source.nextOffset = e.read(f.addrs, p.Node, p.Offset, capacity)
		e.stats.AddressesReceived += uint64(len(f.addrs))
		if len(f.addrs) > 0 {
			e.stats.StreamRequests++
			n++
		}
	}
	if n == 0 {
		return
	}
	q := e.acquireQueue()
	q.slots, e.spare = e.spare, q.slots
	q.fifos = q.slots[:n]
	for i := range q.fifos {
		e.inFIFO.add(q.fifos[i].addrs)
	}
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
// streams persist — the stream-thrashing concern of Section 5.3). One pass
// picks the first inactive queue in slot order; until it finds one, it keeps
// the first queue with the smallest lru as the victim.
func (e *Engine) acquireQueue() *streamQueue {
	var victim *streamQueue
	for _, q := range e.queues {
		if !q.active {
			return q
		}
		if victim == nil || q.lru < victim.lru {
			victim = q
		}
	}
	if len(e.queues) < e.cfg.StreamQueues {
		q := &streamQueue{id: len(e.queues), slots: make([]streamFIFO, e.cfg.ComparedStreams)}
		e.queues = append(e.queues, q)
		return q
	}
	e.retire(victim)
	// Re-use the slot under the slot's next id so stale SVB entries do
	// not advance the new stream.
	victim.id += e.cfg.StreamQueues
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
	for i := range q.fifos {
		e.inFIFO.remove(q.fifos[i].addrs)
	}
	q.active = false
	q.fifos = q.fifos[:0]
}

// fill streams blocks for a queue until the configured lookahead is
// outstanding in the SVB, the FIFO heads diverge, or the sources are
// exhausted.
func (e *Engine) fill(q *streamQueue) {
	for q.outstanding < e.cfg.Lookahead {
		e.refill(q)
		agreed, agree, any := q.headsAgree()
		if !any {
			if !q.hasLiveFIFO() {
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
		q.popAgreed(agreed, e.inFIFO)
		// Do not re-stream a block the SVB already holds.
		if !e.svb.Contains(uint64(agreed)) {
			e.fetched = append(e.fetched, e.svb.Insert(uint64(agreed), q.id))
			q.outstanding++
			q.fetched++
			e.stats.BlocksFetched++
		}
	}
}

// refill tops up any FIFO that has fallen below half of its capacity by
// reading further addresses from its source CMOB (Section 3.3: "When a
// stream queue is half empty, the stream engine requests additional
// addresses from the source CMOB").
func (e *Engine) refill(q *streamQueue) {
	capacity := e.cfg.fifoCapacity()
	for i := range q.fifos {
		f := &q.fifos[i]
		if f.source.exhausted || len(f.addrs) > capacity/2 {
			continue
		}
		have := len(f.addrs)
		f.compact()
		f.addrs, f.source.nextOffset = e.read(f.addrs, f.source.node, f.source.nextOffset, capacity-have)
		e.stats.RefillRequests++
		got := len(f.addrs) - have
		if got == 0 {
			f.source.exhausted = true
			continue
		}
		e.inFIFO.add(f.addrs[have:])
		e.stats.StreamRequests++
		e.stats.AddressesReceived += uint64(got)
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
