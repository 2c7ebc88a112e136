package coherence

import (
	"fmt"
	"math/rand"
	"testing"

	"tsm/internal/mem"
)

// refEngine is the reference classifier: per-node line maps of cached
// blocks beside a map-of-pointers directory, each entry with its own MSI
// state. It restates what Engine derives from the directory alone.
type refEngine struct {
	geo   mem.Geometry
	dir   map[mem.BlockAddr]*refEntry
	lines []map[mem.BlockAddr]refLine
	stats Stats
}

type refLine uint8

const (
	refShared refLine = iota + 1
	refModified
)

type refEntry struct {
	state      blockState
	owner      mem.NodeID
	sharers    map[mem.NodeID]bool
	lastWriter mem.NodeID
}

func newRefEngine(nodes int) *refEngine {
	r := &refEngine{geo: mem.DefaultGeometry(), dir: map[mem.BlockAddr]*refEntry{}}
	for i := 0; i < nodes; i++ {
		r.lines = append(r.lines, map[mem.BlockAddr]refLine{})
	}
	return r
}

func (r *refEngine) entry(b mem.BlockAddr) *refEntry {
	e, ok := r.dir[b]
	if !ok {
		e = &refEntry{state: uncached, owner: mem.InvalidNode, sharers: map[mem.NodeID]bool{}, lastWriter: mem.InvalidNode}
		r.dir[b] = e
	}
	return e
}

// access classifies one access; invalidated lists the nodes a write
// invalidated, in any order.
func (r *refEngine) access(a mem.Access) (res Result, invalidated []mem.NodeID) {
	r.stats.Accesses++
	b := r.geo.BlockOf(a.Addr)
	e := r.entry(b)
	lines := r.lines[a.Node]
	if a.Type == mem.Write || a.Type == mem.AtomicRMW {
		if _, ok := lines[b]; ok && e.state == modified && e.owner == a.Node {
			r.stats.WriteHits++
			return Result{Class: WriteHit, Block: b}, nil
		}
		switch e.state {
		case modified:
			if e.owner != a.Node {
				invalidated = append(invalidated, e.owner)
			}
		case shared:
			for s := range e.sharers {
				if s != a.Node {
					invalidated = append(invalidated, s)
				}
			}
		}
		for _, v := range invalidated {
			delete(r.lines[v], b)
		}
		e.sharers = map[mem.NodeID]bool{}
		e.state, e.owner, e.lastWriter = modified, a.Node, a.Node
		lines[b] = refModified
		r.stats.Invalidations += uint64(len(invalidated))
		r.stats.WriteMisses++
		return Result{Class: WriteMiss, Block: b}, invalidated
	}
	if _, ok := lines[b]; ok {
		r.stats.Hits++
		return Result{Class: Hit, Block: b}, nil
	}
	producer := e.lastWriter
	var coherent bool
	if e.state == modified {
		coherent = e.owner != a.Node
		e.sharers[e.owner] = true
		if r.lines[e.owner][b] == refModified {
			r.lines[e.owner][b] = refShared
		}
		e.owner = mem.InvalidNode
	} else {
		coherent = e.lastWriter != mem.InvalidNode && e.lastWriter != a.Node && !e.sharers[a.Node]
	}
	e.sharers[a.Node] = true
	e.state = shared
	lines[b] = refShared
	switch {
	case !coherent:
		r.stats.PrivateMisses++
		return Result{Class: PrivateMiss, Block: b, Producer: producer}, nil
	case a.Spin:
		r.stats.SpinMisses++
		return Result{Class: SpinMiss, Block: b, Producer: producer}, nil
	}
	r.stats.Consumptions++
	return Result{Class: Consumption, Block: b, Producer: producer}, nil
}

// TestEngineMatchesReference checks every Result and the final Stats of
// Engine against refEngine over seeded random access streams with reads,
// spin reads, writes and atomic read-modify-writes.
func TestEngineMatchesReference(t *testing.T) {
	for _, nodes := range []int{1, 4, 16, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(nodes)))
			eng := New(Config{Nodes: nodes, Geometry: mem.DefaultGeometry()})
			ref := newRefEngine(nodes)
			// Few blocks so that sharing, upgrades and invalidations are
			// frequent; unaligned addresses exercise block mapping.
			blocks := 8 + rng.Intn(56)
			for i := 0; i < 20000; i++ {
				a := mem.Access{
					Node: mem.NodeID(rng.Intn(nodes)),
					Addr: mem.Addr(rng.Intn(blocks)*64 + rng.Intn(64)),
				}
				switch k := rng.Intn(10); {
				case k < 5:
					a.Type = mem.Read
				case k < 6:
					a.Type, a.Spin = mem.Read, true
				case k < 9:
					a.Type = mem.Write
				default:
					a.Type = mem.AtomicRMW
				}
				got := eng.AccessEmit(a, nil)
				want, inv := ref.access(a)
				var wantInv SharerSet
				for _, n := range inv {
					wantInv.Add(n)
				}
				want.Invalidated = wantInv
				if got != want || len(inv) != wantInv.Count() {
					t.Fatalf("nodes %d seed %d access %d %+v: got %+v, want %+v (invalidated %v)", nodes, seed, i, a, got, want, inv)
				}
			}
			if got, want := eng.Stats(), ref.stats; got != want {
				t.Fatalf("nodes %d seed %d: stats %+v, want %+v", nodes, seed, got, want)
			}
		}
	}
}

// TestAccessDoesNotAllocate: on a warmed engine, every class of access to
// an already-referenced block allocates nothing.
func TestAccessDoesNotAllocate(t *testing.T) {
	const shared, private = mem.Addr(0x1000), mem.Addr(0x2000)
	eng := New(Config{Nodes: mem.MaxNodes, Geometry: mem.DefaultGeometry()})
	acc := func(n mem.NodeID, addr mem.Addr, typ mem.AccessType) Result {
		return eng.AccessEmit(mem.Access{Node: n, Addr: addr, Type: typ}, nil)
	}
	// The shared block starts each cycle shared by nodes 1 and 2, written
	// last by node 2; node 0 has read the private block, which nobody
	// writes.
	acc(2, shared, mem.Write)
	acc(1, shared, mem.Read)
	acc(0, private, mem.Read)

	cases := []struct {
		name string
		run  func() Result
		want Classification
		inv  int // invalidated copies
	}{
		{"write miss with invalidations", func() Result { return acc(0, shared, mem.Write) }, WriteMiss, 2},
		{"write hit", func() Result { return acc(0, shared, mem.Write) }, WriteHit, 0},
		{"consumption", func() Result { return acc(1, shared, mem.Read) }, Consumption, 0},
		{"read hit", func() Result { return acc(1, shared, mem.Read) }, Hit, 0},
		{"upgrade", func() Result { return acc(1, shared, mem.Write) }, WriteMiss, 1},
		{"consumption", func() Result { return acc(2, shared, mem.Read) }, Consumption, 0},
	}
	// Each run reads the private block from a node that never held it: a
	// private miss. The 51 calls AllocsPerRun makes use nodes 1 to 51.
	next := mem.NodeID(1)
	var bad string
	allocs := testing.AllocsPerRun(50, func() {
		for _, c := range cases {
			if r := c.run(); (r.Class != c.want || r.Invalidated.Count() != c.inv) && bad == "" {
				bad = fmt.Sprintf("%s: got %+v", c.name, r)
			}
		}
		if r := acc(next, private, mem.Read); r.Class != PrivateMiss && bad == "" {
			bad = "private miss: got " + r.Class.String()
		}
		next++
	})
	if bad != "" {
		t.Fatal(bad)
	}
	if allocs != 0 {
		t.Fatalf("allocs per access cycle = %v, want 0", allocs)
	}
}
