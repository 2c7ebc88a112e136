package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// Address-space regions used by the commercial generators.
const (
	regionOLTPMeta    = 8  // hot migratory metadata (latches, log tail, free lists)
	regionOLTPRecords = 9  // record/index block groups touched by transactions
	regionOLTPHeap    = 10 // large buffer pool accessed with little reuse
	regionOLTPLocks   = 11 // contended lock words (spin accesses)
	regionWebConn     = 12 // per-connection / per-URL metadata groups
	regionWebShared   = 13 // shared counters and caches
	regionWebHeap     = 14 // network buffers and OS structures
)

// recordGroup is an ordered set of blocks that is always traversed in the
// same order (a table fragment, an index path plus its leaf records, a file
// descriptor chain). Recurring traversals of such groups by different nodes
// are what gives commercial workloads their temporally correlated streams;
// the group length distribution is what Figure 13 measures.
type recordGroup struct {
	blocks []int
}

// commercialShape collects the tunables that differ between the OLTP and web
// generators. The values are calibrated against the paper's measurements:
// roughly 40-60% of OLTP consumptions and ~43% of web consumptions are
// temporally correlated (Figure 6), and 30-45% of commercial stream hits
// come from streams shorter than eight blocks (Figure 13).
type commercialShape struct {
	groups          int     // number of record groups
	meanGroupLen    int     // mean blocks per group (geometric-ish mixture)
	longGroupFrac   float64 // fraction of groups that are long scans
	longGroupLen    int     // length of the long groups
	noiseFraction   float64 // fraction of shared reads with no reuse structure
	heapBlocks      int     // size of the no-reuse heap
	metaBlocks      int     // number of hot migratory metadata blocks
	metaPerTxn      int     // metadata blocks touched per transaction
	groupsPerTxn    int     // record groups traversed per transaction
	evolveEvery     int     // transactions between data-structure evolution steps
	evolveFraction  float64 // fraction of a group remapped when it evolves
	transactions    int     // total transactions at Scale=1
	lockSpinPerTxn  int     // spin reads per transaction (excluded from consumptions)
	writeBackGroups bool    // whether traversals write the blocks they read (migratory)
}

// commercial is the shared implementation behind the OLTP and web server
// generators.
type commercial struct {
	cfg     Config
	name    string
	class   Class
	shape   commercialShape
	timing  TimingProfile
	regions struct {
		meta, records, heap, locks int
	}
}

// NewOLTP builds a TPC-C-like OLTP generator for the given database name
// ("DB2" or "Oracle"). The two databases share sharing behaviour but differ
// slightly in how much uncorrelated buffer-pool traffic they generate and in
// their timing profiles (Figure 14 shows DB2 with the largest user-level
// coherent-read stall fraction).
func NewOLTP(cfg Config, name string) Generator {
	cfg = cfg.normalize()
	c := &commercial{cfg: cfg, name: name, class: Commercial}
	c.regions.meta = regionOLTPMeta
	c.regions.records = regionOLTPRecords
	c.regions.heap = regionOLTPHeap
	c.regions.locks = regionOLTPLocks
	c.shape = commercialShape{
		groups:          scaled(600, cfg.Scale, 64),
		meanGroupLen:    16,
		longGroupFrac:   0.08,
		longGroupLen:    96,
		noiseFraction:   0.55,
		heapBlocks:      scaled(200000, cfg.Scale, 4096),
		metaBlocks:      48,
		metaPerTxn:      4,
		groupsPerTxn:    3,
		evolveEvery:     40,
		evolveFraction:  0.15,
		transactions:    repeated(scaled(2500, cfg.Scale, 200), cfg.Repeat),
		lockSpinPerTxn:  1,
		writeBackGroups: true,
	}
	switch name {
	case "Oracle":
		c.shape.noiseFraction = 0.65
		c.timing = TimingProfile{
			BusyFraction: 0.31, OtherStallFraction: 0.37, CoherentStallFraction: 0.32,
			MLP: 1.2, Lookahead: 8,
		}
	default: // DB2
		c.timing = TimingProfile{
			BusyFraction: 0.28, OtherStallFraction: 0.37, CoherentStallFraction: 0.35,
			MLP: 1.3, Lookahead: 8,
		}
	}
	return c
}

// NewWebServer builds a SPECweb99-like web server generator ("Apache" or
// "Zeus"). Web servers share less data than OLTP and a larger fraction of
// their coherent misses comes from OS and network structures with little
// reuse, so the correlated fraction is lower (~43% in Figure 6) and streams
// are shorter.
func NewWebServer(cfg Config, name string) Generator {
	cfg = cfg.normalize()
	c := &commercial{cfg: cfg, name: name, class: Commercial}
	c.regions.meta = regionWebShared
	c.regions.records = regionWebConn
	c.regions.heap = regionWebHeap
	c.regions.locks = regionOLTPLocks
	c.shape = commercialShape{
		groups:          scaled(900, cfg.Scale, 64),
		meanGroupLen:    10,
		longGroupFrac:   0.04,
		longGroupLen:    48,
		noiseFraction:   0.95,
		heapBlocks:      scaled(250000, cfg.Scale, 4096),
		metaBlocks:      32,
		metaPerTxn:      3,
		groupsPerTxn:    2,
		evolveEvery:     30,
		evolveFraction:  0.20,
		transactions:    repeated(scaled(3000, cfg.Scale, 200), cfg.Repeat),
		lockSpinPerTxn:  1,
		writeBackGroups: true,
	}
	c.timing = TimingProfile{
		BusyFraction: 0.32, OtherStallFraction: 0.38, CoherentStallFraction: 0.30,
		MLP: 1.3, Lookahead: 8,
	}
	if name == "Apache" {
		// Apache's worker threading model shares slightly more request
		// state between nodes than Zeus's event-driven model, and shows a
		// marginally larger coherent-read stall fraction in Figure 14.
		c.shape.meanGroupLen = 11
		c.shape.noiseFraction = 0.90
		c.timing.BusyFraction = 0.30
		c.timing.OtherStallFraction = 0.38
		c.timing.CoherentStallFraction = 0.32
	} else {
		c.shape.transactions = repeated(scaled(2800, cfg.Scale, 200), cfg.Repeat)
		c.shape.noiseFraction = 1.0
		c.cfg.Seed += 7
	}
	return c
}

// Name implements Generator.
func (c *commercial) Name() string { return c.name }

// Class implements Generator.
func (c *commercial) Class() Class { return c.class }

// Timing implements Generator.
func (c *commercial) Timing() TimingProfile { return c.timing }

// recordSpaceBlocks is the size of the block index space record groups are
// scattered over. Database records and index nodes are not physically
// contiguous, so group members are drawn at random from this space — which
// also keeps the traversals free of the strided patterns a stride prefetcher
// could exploit (the paper's stride baseline rarely fires, Figure 12).
const recordSpaceBlocks = 1 << 22

// buildGroups creates the record groups with a mixture of short traversals
// and occasional long scans. Each group's blocks are scattered across the
// record space but always traversed in the same order.
func (c *commercial) buildGroups(rng *rand.Rand) []recordGroup {
	groups := make([]recordGroup, c.shape.groups)
	for i := range groups {
		length := 2 + rng.Intn(2*c.shape.meanGroupLen-2)
		if rng.Float64() < c.shape.longGroupFrac {
			length = c.shape.longGroupLen/2 + rng.Intn(c.shape.longGroupLen)
		}
		blocks := make([]int, length)
		for j := range blocks {
			blocks[j] = rng.Intn(recordSpaceBlocks)
		}
		groups[i] = recordGroup{blocks: blocks}
	}
	return groups
}

// Emit implements Generator. Transactions execute one after another on
// round-robin nodes (with occasional repeats, modelling affinity); each
// transaction touches hot migratory metadata, traverses a few record groups
// in their canonical order (reading and then updating each block, which is
// what makes the data migratory), sprinkles uncorrelated buffer-pool reads
// between them, and occasionally spins on a contended lock. The only state
// held across the run is the record groups and hot pools — the emitted
// stream itself is never buffered.
func (c *commercial) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(c.cfg.Seed + 101))
	groups := c.buildGroups(rng)
	freshBlock := recordSpaceBlocks // source of new block indices for evolved groups

	// Hot migratory metadata blocks are likewise scattered (latches, log
	// tail, free lists live in unrelated allocations), but are visited in a
	// fixed rotation so their short access sequences recur.
	hotMeta := make([]int, c.shape.metaBlocks)
	for i := range hotMeta {
		hotMeta[i] = rng.Intn(recordSpaceBlocks)
	}

	// hotHeap models the recycled OS / network-buffer / buffer-pool pages
	// that both databases and web servers constantly rewrite and re-read on
	// different nodes. Reads of these blocks are coherent misses (the last
	// writer is usually another node) but their order never repeats — the
	// uncorrelated component of the commercial consumption mix. The pool is
	// long-lived, so after warm-up each block has been consumed by several
	// nodes, which is what lets the TSE's stream comparison recognise these
	// misses as non-correlated and stall instead of streaming garbage.
	hotHeapBlocks := 4096
	if hotHeapBlocks > c.shape.heapBlocks {
		hotHeapBlocks = c.shape.heapBlocks
	}
	hotHeap := make([]int, hotHeapBlocks)
	for i := range hotHeap {
		hotHeap[i] = rng.Intn(c.shape.heapBlocks)
	}

	em := &emitter{yield: yield}
	appendAccess := func(node int, region, index int, typ mem.AccessType, spin bool) {
		em.emit(mem.Access{
			Node:   mem.NodeID(node),
			Addr:   blockAddr(region, index),
			Type:   typ,
			Shared: true,
			Spin:   spin,
		})
	}

	node := 0
	for txn := 0; txn < c.shape.transactions && !em.failed(); txn++ {
		// Transaction placement: mostly round-robin across nodes, with some
		// affinity (same node runs consecutive transactions occasionally).
		if rng.Float64() < 0.8 {
			node = (node + 1) % c.cfg.Nodes
		}

		// Periodic data-structure evolution: parts of some groups are
		// replaced by fresh blocks (inserts/deletes, B-tree splits), which
		// is why commercial streams decay over time.
		if c.shape.evolveEvery > 0 && txn > 0 && txn%c.shape.evolveEvery == 0 {
			g := &groups[rng.Intn(len(groups))]
			for j := range g.blocks {
				if rng.Float64() < c.shape.evolveFraction {
					g.blocks[j] = freshBlock
					freshBlock++
				}
			}
		}

		// Hot migratory metadata: read-modify-write a few well-known blocks
		// in a fixed rotation (log tail, free lists, statistics).
		metaStart := rng.Intn(c.shape.metaBlocks)
		for i := 0; i < c.shape.metaPerTxn; i++ {
			idx := hotMeta[(metaStart+i)%c.shape.metaBlocks]
			appendAccess(node, c.regions.meta, idx, mem.Read, false)
			appendAccess(node, c.regions.meta, idx, mem.Write, false)
		}

		// Occasionally spin on a contended lock before doing work. These
		// coherent reads are excluded from consumptions by the analysis.
		for i := 0; i < c.shape.lockSpinPerTxn; i++ {
			lock := rng.Intn(8)
			spins := 1 + rng.Intn(3)
			for s := 0; s < spins; s++ {
				appendAccess(node, c.regions.locks, lock, mem.Read, true)
			}
			appendAccess(node, c.regions.locks, lock, mem.AtomicRMW, false)
		}

		// Record-group traversals: the temporally correlated portion. The
		// blocks of one group are always visited in the same order, and the
		// transaction updates each block it reads, which is what makes the
		// data migratory.
		for gidx := 0; gidx < c.shape.groupsPerTxn; gidx++ {
			g := groups[rng.Intn(len(groups))]
			for _, b := range g.blocks {
				appendAccess(node, c.regions.records, b, mem.Read, false)
				if c.shape.writeBackGroups {
					appendAccess(node, c.regions.records, b, mem.Write, false)
				}
			}
			// Uncorrelated traffic follows in a burst: OS, network and
			// buffer-manager activity between database operations. Each
			// noise read targets a hot heap block some node wrote recently,
			// so it is a coherent miss, but the selection is random so the
			// order never repeats.
			noiseReads := int(c.shape.noiseFraction*float64(len(g.blocks)) + 0.5)
			for i := 0; i < noiseReads; i++ {
				heapIdx := hotHeap[rng.Intn(len(hotHeap))]
				appendAccess(node, c.regions.heap, heapIdx, mem.Read, false)
			}
		}

		// Recycle some hot heap blocks: the writes invalidate the other
		// nodes' copies so later reads of those blocks are consumptions
		// again. The write volume is sized so that a typical hot block is
		// read by two or three different nodes between rewrites: the
		// uncorrelated misses then have more than one recorded history,
		// whose disagreement makes the TSE stall rather than stream
		// (the accuracy mechanism of Section 5.2).
		heapWrites := 6 + rng.Intn(6)
		for i := 0; i < heapWrites; i++ {
			appendAccess(node, c.regions.heap, hotHeap[rng.Intn(len(hotHeap))], mem.Write, false)
		}
	}
	return em.err
}
