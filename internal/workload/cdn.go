package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// Address-space regions used by the content-distribution generator.
const (
	regionCDNObjects = 24 // content object payload runs
	regionCDNConn    = 25 // recycled per-request connection state
)

// CDN models a content-distribution / media-serving tier: origin nodes
// publish multi-block content objects that edge nodes then serve. Every
// request reads its object's payload blocks in order, so each object forms
// one long, perfectly ordered consumption stream with a single producer and
// many consumers — scientific-length streams wrapped in commercial noise,
// a mix none of the paper's seven workloads exhibits. Object popularity is
// Zipf-skewed; periodic refreshes (the origin rewriting an object)
// invalidate the edges' cached copies, so hot objects are re-streamed again
// and again while cold objects decay. Per-request connection state over a
// recycled pool contributes the uncorrelated consumption noise.
type CDN struct {
	cfg      Config
	objects  int
	requests int
	// base block index and length of each object's payload run.
	base []int
	size []int
}

// NewCDN builds a content-distribution generator.
func NewCDN(cfg Config) *CDN {
	cfg = cfg.normalize()
	c := &CDN{
		cfg:      cfg,
		objects:  scaled(600, cfg.Scale, 64),
		requests: repeated(scaled(6000, cfg.Scale, 500), cfg.Repeat),
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 401))
	c.base = make([]int, c.objects)
	c.size = make([]int, c.objects)
	next := 0
	for i := 0; i < c.objects; i++ {
		c.base[i] = next
		c.size[i] = 4 + rng.Intn(28)
		next += c.size[i]
	}
	return c
}

// Name implements Generator.
func (c *CDN) Name() string { return "cdn" }

// Class implements Generator.
func (c *CDN) Class() Class { return Commercial }

// Timing implements Generator. Serving content is I/O- and copy-heavy
// (large busy/other components); payload reads arrive back to back while an
// object is transferred, sustaining more outstanding misses than the
// request/response web servers.
func (c *CDN) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.33,
		OtherStallFraction:    0.37,
		CoherentStallFraction: 0.30,
		MLP:                   1.8,
		Lookahead:             12,
	}
}

// Emit implements Generator. Requests execute on round-robin edge
// nodes; each reads one Zipf-popular object's payload run in order.
// Periodically the object's origin node refreshes the payload, invalidating
// every edge copy.
func (c *CDN) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(c.cfg.Seed + 409))
	zipf := rand.NewZipf(rng, 1.05, 1, uint64(c.objects-1))

	// Recycled connection/socket state, constantly rewritten on one node and
	// read on another (the uncorrelated commercial noise component).
	conn := make([]int, 2048)
	for i := range conn {
		conn[i] = rng.Intn(1 << 20)
	}

	em := &emitter{yield: yield}
	add := func(node, region, index int, typ mem.AccessType) {
		em.emit(mem.Access{
			Node:   mem.NodeID(node),
			Addr:   blockAddr(region, index),
			Type:   typ,
			Shared: true,
		})
	}
	// origin returns the node that publishes an object (its home).
	origin := func(obj int) int { return obj % c.cfg.Nodes }

	// Initial publication: origins write every object once so the first
	// requests stream from the producers. Each node's publication sequence —
	// its objects in id order, blocks in payload order — is walked by a
	// cursor instead of being materialized.
	pubCount := make([]int, c.cfg.Nodes)
	for obj := 0; obj < c.objects; obj++ {
		pubCount[origin(obj)] += c.size[obj]
	}
	pub := make([]cursor, c.cfg.Nodes)
	for p := 0; p < c.cfg.Nodes; p++ {
		p := p
		obj, b := 0, 0
		pub[p] = cursor{n: pubCount[p], next: func() mem.Access {
			for origin(obj) != p || b >= c.size[obj] {
				obj++
				b = 0
			}
			a := mem.Access{
				Node: mem.NodeID(p), Addr: blockAddr(regionCDNObjects, c.base[obj]+b),
				Type: mem.Write, Shared: true,
			}
			b++
			return a
		}}
	}
	if err := interleaveEmit(pub, 32, rng, yield); err != nil {
		return err
	}

	node := 0
	for req := 0; req < c.requests && !em.failed(); req++ {
		node = (node + 1) % c.cfg.Nodes
		obj := int(zipf.Uint64())

		// Periodic refresh: the origin rewrites a popular object, so the
		// next request from each edge re-streams the whole payload.
		if req%7 == 3 {
			fresh := int(zipf.Uint64())
			p := origin(fresh)
			for b := c.base[fresh]; b < c.base[fresh]+c.size[fresh]; b++ {
				add(p, regionCDNObjects, b, mem.Write)
			}
		}

		// Serve the request: payload blocks in order.
		for b := c.base[obj]; b < c.base[obj]+c.size[obj]; b++ {
			add(node, regionCDNObjects, b, mem.Read)
		}

		// Connection state around the transfer.
		for i := 0; i < 2; i++ {
			add(node, regionCDNConn, conn[rng.Intn(len(conn))], mem.Read)
		}
		add(node, regionCDNConn, conn[rng.Intn(len(conn))], mem.Write)
	}
	return em.err
}
