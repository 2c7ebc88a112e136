package workload

import (
	"math/rand"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/trace"
)

// testConfig is a small, fast configuration for unit tests.
func testConfig() Config {
	return Config{Nodes: 4, Seed: 7, Scale: 0.05}
}

// generate collects a generator's whole emission into a slice.
func generate(g Generator) []mem.Access {
	var out []mem.Access
	if err := g.Emit(func(a mem.Access) error {
		out = append(out, a)
		return nil
	}); err != nil {
		panic(err) // the yield never fails, so neither does Emit
	}
	return out
}

// classify runs a generator through an infinite-cache coherence engine.
func classify(t *testing.T, g Generator, cfg Config) *trace.Trace {
	t.Helper()
	eng := coherence.New(coherence.Config{Nodes: cfg.Nodes, Geometry: mem.DefaultGeometry()})
	tr, err := eng.RunFrom(g.Emit)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sliceCursors adapts materialized per-node slices to cursors.
func sliceCursors(perNode [][]mem.Access) []cursor {
	out := make([]cursor, len(perNode))
	for i, s := range perNode {
		pos := 0
		out[i] = cursor{n: len(s), next: func() mem.Access {
			pos++
			return s[pos-1]
		}}
	}
	return out
}

// interleaved collects interleaveEmit over materialized per-node slices.
func interleaved(perNode [][]mem.Access, chunk int, rng *rand.Rand) []mem.Access {
	var out []mem.Access
	_ = interleaveEmit(sliceCursors(perNode), chunk, rng, func(a mem.Access) error {
		out = append(out, a)
		return nil
	})
	return out
}

func TestRegistryComplete(t *testing.T) {
	specs := Registry()
	if len(specs) != 12 {
		t.Fatalf("registry has %d workloads, want 12", len(specs))
	}
	wantOrder := []string{"em3d", "moldyn", "ocean", "apache", "db2", "oracle", "zeus", "memkv", "pagerank", "cdn", "mix", "mix-sci-com"}
	for i, s := range specs {
		if s.Name != wantOrder[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, s.Name, wantOrder[i])
		}
		if s.Parameters == "" {
			t.Errorf("workload %q has no Table 2 parameters", s.Name)
		}
		if s.New == nil {
			t.Errorf("workload %q has no constructor", s.Name)
		}
		if s.Extra != (s.Name == "mix" || s.Name == "mix-sci-com") {
			t.Errorf("workload %q Extra = %v; only the cross-workload mixes are extras", s.Name, s.Extra)
		}
	}
	// Names() is the default suite — everything but the extras — so the
	// suite-wide experiment goldens are independent of registered mixes.
	names := Names()
	if len(names) != 10 {
		t.Fatalf("Names() = %v, want the 10 suite workloads", names)
	}
	for i := range names {
		if names[i] != wantOrder[i] {
			t.Fatalf("Names() = %v", names)
		}
	}
	all := AllNames()
	if len(all) != len(wantOrder) {
		t.Fatalf("AllNames() = %v", all)
	}
	for i := range wantOrder {
		if all[i] != wantOrder[i] {
			t.Fatalf("AllNames() = %v", all)
		}
	}
	if _, ok := ByName("db2"); !ok {
		t.Fatal("ByName(db2) should succeed")
	}
	if _, ok := ByName("mix"); !ok {
		t.Fatal("ByName(mix) should find the extra workloads")
	}
	if _, ok := ByName("notarealworkload"); ok {
		t.Fatal("ByName of unknown workload should fail")
	}
}

func TestClassString(t *testing.T) {
	if Scientific.String() != "scientific" || Commercial.String() != "commercial" {
		t.Fatal("unexpected class strings")
	}
}

func TestTimingProfilesValid(t *testing.T) {
	for _, spec := range Registry() {
		g := spec.New(testConfig())
		p := g.Timing()
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid timing profile: %v", spec.Name, err)
		}
		if spec.Class != g.Class() {
			t.Errorf("%s: class mismatch", spec.Name)
		}
	}
	bad := TimingProfile{BusyFraction: 0.5, OtherStallFraction: 0.1, CoherentStallFraction: 0.1, MLP: 1, Lookahead: 8}
	if bad.Validate() == nil {
		t.Fatal("non-normalised profile should fail validation")
	}
	bad = TimingProfile{BusyFraction: 0.5, OtherStallFraction: 0.3, CoherentStallFraction: 0.2, MLP: 0.5, Lookahead: 8}
	if bad.Validate() == nil {
		t.Fatal("MLP < 1 should fail validation")
	}
	bad = TimingProfile{BusyFraction: 0.5, OtherStallFraction: 0.3, CoherentStallFraction: 0.2, MLP: 2, Lookahead: 0}
	if bad.Validate() == nil {
		t.Fatal("zero lookahead should fail validation")
	}
}

func TestGeneratorsProduceValidAccesses(t *testing.T) {
	cfg := testConfig()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.New(cfg)
			accesses := generate(g)
			if len(accesses) < 1000 {
				t.Fatalf("%s generated only %d accesses", spec.Name, len(accesses))
			}
			reads, writes := 0, 0
			for _, a := range accesses {
				if int(a.Node) < 0 || int(a.Node) >= cfg.Nodes {
					t.Fatalf("access with node %d outside [0,%d)", a.Node, cfg.Nodes)
				}
				switch a.Type {
				case mem.Read:
					reads++
				case mem.Write, mem.AtomicRMW:
					writes++
				}
			}
			if reads == 0 || writes == 0 {
				t.Fatalf("%s: reads=%d writes=%d, want both nonzero", spec.Name, reads, writes)
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cfg := testConfig()
	for _, spec := range Registry() {
		a := generate(spec.New(cfg))
		b := generate(spec.New(cfg))
		if len(a) != len(b) {
			t.Fatalf("%s: non-deterministic length %d vs %d", spec.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: access %d differs between runs", spec.Name, i)
			}
		}
	}
}

func TestGeneratorsProduceConsumptions(t *testing.T) {
	cfg := testConfig()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			tr := classify(t, spec.New(cfg), cfg)
			cons := tr.ConsumptionCount()
			if cons < 500 {
				t.Fatalf("%s produced only %d consumptions", spec.Name, cons)
			}
			// Every node should consume something.
			perNode := tr.NodeConsumptions(cfg.Nodes)
			for n, evs := range perNode {
				if len(evs) == 0 {
					t.Errorf("%s: node %d has no consumptions", spec.Name, n)
				}
			}
		})
	}
}

func TestCommercialWorkloadsEmitSpins(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"db2", "oracle", "apache", "zeus", "memkv"} {
		spec, _ := ByName(name)
		accesses := generate(spec.New(cfg))
		spins := 0
		for _, a := range accesses {
			if a.Spin {
				spins++
			}
		}
		if spins == 0 {
			t.Errorf("%s emits no spin accesses", name)
		}
	}
}

func TestScientificRepetitionAcrossIterations(t *testing.T) {
	// The per-node consumption order of em3d must repeat across iterations:
	// take node 1's consumptions, split in half (≈ per-iteration groups are
	// equal because there are 10 identical iterations) and check large
	// overlap in sequence.
	cfg := testConfig()
	spec, _ := ByName("em3d")
	tr := classify(t, spec.New(cfg), cfg)
	per := tr.NodeConsumptions(cfg.Nodes)[1]
	if len(per) < 100 {
		t.Skip("not enough consumptions to check repetition")
	}
	// Count how many blocks appear more than once in the node's order —
	// with 10 iterations nearly every consumed block should recur.
	seen := map[mem.BlockAddr]int{}
	for _, e := range per {
		seen[e.Block]++
	}
	recurring := 0
	for _, c := range seen {
		if c > 1 {
			recurring++
		}
	}
	if float64(recurring) < 0.9*float64(len(seen)) {
		t.Fatalf("only %d of %d consumed blocks recur; em3d should be highly repetitive", recurring, len(seen))
	}
}

func TestPageRankDegeneratePartitions(t *testing.T) {
	// Ceil-division partitioning can leave the last partition empty when the
	// node count is large relative to the vertex count; generation must fall
	// back to intra-partition edges instead of panicking on an empty range.
	// Nodes=100, Scale=0.267 → 6408 vertices, per=ceil(6408/100)=65, so
	// partition 99 spans [6435, 6408): empty.
	cfg := Config{Nodes: 100, Seed: 3, Scale: 0.267}
	g := NewPageRank(cfg)
	if got := len(generate(g)); got == 0 {
		t.Fatalf("degenerate partitioning generated %d accesses", got)
	}
}

func TestConfigNormalize(t *testing.T) {
	c := Config{}.normalize()
	if c.Nodes != 16 || c.Scale != 1.0 || c.Seed == 0 {
		t.Fatalf("normalize() = %+v", c)
	}
	if scaled(100, 0.5, 10) != 50 || scaled(100, 0.001, 10) != 10 {
		t.Fatal("scaled() wrong")
	}
}

func TestInterleaveCoversAllAccesses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perNode := [][]mem.Access{
		make([]mem.Access, 10),
		make([]mem.Access, 25),
		make([]mem.Access, 3),
	}
	for n := range perNode {
		for i := range perNode[n] {
			perNode[n][i] = mem.Access{Node: mem.NodeID(n), Addr: mem.Addr(i * 64)}
		}
	}
	out := interleaved(perNode, 4, rng)
	if len(out) != 38 {
		t.Fatalf("interleave dropped accesses: got %d, want 38", len(out))
	}
	// Per-node relative order must be preserved.
	next := map[mem.NodeID]mem.Addr{}
	for _, a := range out {
		if a.Addr < next[a.Node] {
			t.Fatal("interleave reordered a node's accesses")
		}
		next[a.Node] = a.Addr
	}
	// Zero chunk defaults sanely.
	if got := interleaved(perNode, 0, nil); len(got) != 38 {
		t.Fatal("interleave with zero chunk should still cover everything")
	}
}

func TestBlockAddrRegionsDoNotCollide(t *testing.T) {
	g := mem.DefaultGeometry()
	a := blockAddr(regionOLTPRecords, 12345)
	b := blockAddr(regionOLTPHeap, 12345)
	if a == b {
		t.Fatal("different regions must not produce the same address")
	}
	if g.Offset(a) != 0 {
		t.Fatal("region addresses must be block aligned")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int]struct{}{3: {}, 1: {}, 2: {}}
	k := sortedKeys(m)
	if len(k) != 3 || k[0] != 1 || k[1] != 2 || k[2] != 3 {
		t.Fatalf("sortedKeys = %v", k)
	}
}
