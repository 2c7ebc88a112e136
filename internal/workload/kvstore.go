package workload

import (
	"math/rand"

	"tsm/internal/mem"
)

// Address-space regions used by the key-value store generator.
const (
	regionKVChains = 16 // hash-bucket / item-header / value-block chains
	regionKVMeta   = 17 // LRU heads, slab statistics (hot migratory metadata)
	regionKVHeap   = 18 // recycled network/connection buffers (uncorrelated)
	regionKVLocks  = 19 // contended slab/LRU lock words (spin accesses)
)

// KVStore models a memcached-style in-memory key-value store serving a
// skewed GET/SET mix. Its sharing texture sits between OLTP and the web
// servers: each key resolves through a short fixed-order chain (hash bucket
// → item header → value blocks), so the temporally correlated streams are
// much shorter than OLTP's record-group traversals, but the Zipf-skewed
// popularity means the same hot chains recur at every node within a short
// window, giving the TSE frequent, short, highly repetitive streams. SETs
// rewrite a chain's value blocks (invalidating cached copies everywhere),
// LRU-head and statistics updates form hot migratory metadata, and recycled
// network buffers contribute the uncorrelated consumption noise.
type KVStore struct {
	cfg    Config
	chains int
	ops    int
}

// NewKVStore builds a key-value store generator.
func NewKVStore(cfg Config) *KVStore {
	cfg = cfg.normalize()
	return &KVStore{
		cfg:    cfg,
		chains: scaled(1200, cfg.Scale, 96),
		ops:    repeated(scaled(9000, cfg.Scale, 700), cfg.Repeat),
	}
}

// Name implements Generator.
func (k *KVStore) Name() string { return "memkv" }

// Class implements Generator.
func (k *KVStore) Class() Class { return Commercial }

// Timing implements Generator. The key-value server spends most of its time
// in network processing and hash-table walks (busy + other stalls); the
// coherent component is comparable to the web servers, and the short request
// handlers keep the consumption MLP low.
func (k *KVStore) Timing() TimingProfile {
	return TimingProfile{
		BusyFraction:          0.30,
		OtherStallFraction:    0.35,
		CoherentStallFraction: 0.35,
		MLP:                   1.4,
		Lookahead:             8,
	}
}

// Emit implements Generator. Operations execute on round-robin nodes;
// each GET walks the key's chain in canonical order, each SET rewrites the
// chain's value blocks, and both touch the LRU/statistics metadata.
func (k *KVStore) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(k.cfg.Seed + 211))

	// Chains are scattered across the record space (hash tables do not keep
	// related items adjacent) but always walked in the same order. Chain
	// length: 1 bucket block + 1 header block + 1-3 value blocks.
	chains := make([][]int, k.chains)
	for i := range chains {
		length := 3 + rng.Intn(3)
		blocks := make([]int, length)
		for j := range blocks {
			blocks[j] = rng.Intn(recordSpaceBlocks)
		}
		chains[i] = blocks
	}

	// Zipf-skewed key popularity: the defining property of cache workloads.
	zipf := rand.NewZipf(rng, 1.07, 1, uint64(k.chains-1))

	// Hot migratory metadata: LRU list heads and slab statistics.
	const metaBlocks = 24
	hotMeta := make([]int, metaBlocks)
	for i := range hotMeta {
		hotMeta[i] = rng.Intn(recordSpaceBlocks)
	}

	// Recycled network buffers (see the commercial generators): reads are
	// coherent but never in a repeating order.
	hotHeap := make([]int, 2048)
	for i := range hotHeap {
		hotHeap[i] = rng.Intn(1 << 20)
	}

	em := &emitter{yield: yield}
	add := func(node, region, index int, typ mem.AccessType, spin bool) {
		em.emit(mem.Access{
			Node:   mem.NodeID(node),
			Addr:   blockAddr(region, index),
			Type:   typ,
			Shared: true,
			Spin:   spin,
		})
	}

	node := 0
	for op := 0; op < k.ops && !em.failed(); op++ {
		// Connection handling is distributed round-robin with some affinity.
		if rng.Float64() < 0.85 {
			node = (node + 1) % k.cfg.Nodes
		}
		chain := chains[zipf.Uint64()]

		if rng.Float64() < 0.10 {
			// SET: take the slab lock, rewrite the chain's value blocks and
			// update the LRU head.
			lock := rng.Intn(4)
			for s := 0; s < 1+rng.Intn(2); s++ {
				add(node, regionKVLocks, lock, mem.Read, true)
			}
			add(node, regionKVLocks, lock, mem.AtomicRMW, false)
			for _, b := range chain {
				add(node, regionKVChains, b, mem.Write, false)
			}
			meta := hotMeta[rng.Intn(metaBlocks)]
			add(node, regionKVMeta, meta, mem.Read, false)
			add(node, regionKVMeta, meta, mem.Write, false)
		} else {
			// GET: walk the chain in canonical order, then bump the LRU head
			// for a fraction of hits (memcached-style lazy LRU).
			for _, b := range chain {
				add(node, regionKVChains, b, mem.Read, false)
			}
			if rng.Float64() < 0.25 {
				meta := hotMeta[rng.Intn(metaBlocks)]
				add(node, regionKVMeta, meta, mem.Read, false)
				add(node, regionKVMeta, meta, mem.Write, false)
			}
		}

		// Network/connection buffer traffic around the operation: coherent
		// but uncorrelated reads, plus the writes that recycle the pool.
		for i := 0; i < 2; i++ {
			add(node, regionKVHeap, hotHeap[rng.Intn(len(hotHeap))], mem.Read, false)
		}
		add(node, regionKVHeap, hotHeap[rng.Intn(len(hotHeap))], mem.Write, false)
	}
	return em.err
}
