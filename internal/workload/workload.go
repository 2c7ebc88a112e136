// Package workload provides synthetic shared-memory workload generators
// standing in for the applications of Table 2: the scientific codes em3d,
// moldyn and ocean, the OLTP workloads (TPC-C on DB2 and Oracle) and the web
// server workloads (SPECweb99 on Apache and Zeus).
//
// The real applications (and the Simics full-system environment that ran
// them) are not available, so each generator reproduces the *sharing
// behaviour* the paper measures rather than the computation: which blocks
// are written by which node, in what order other nodes then read them, how
// repetitive those orders are across iterations or transactions, how long
// the recurring streams are, and how much uncorrelated traffic surrounds
// them. The calibration targets are the paper's own characterisation:
// Figure 6 (fraction of temporally correlated consumptions), Figure 13
// (stream length distribution) and Table 3 (consumption MLP). DESIGN.md
// documents the substitution in detail.
package workload

import (
	"fmt"
	"sort"

	"tsm/internal/mem"
)

// Class distinguishes the two halves of the application suite.
type Class int

const (
	// Scientific covers em3d, moldyn and ocean.
	Scientific Class = iota
	// Commercial covers the OLTP and web server workloads.
	Commercial
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Commercial {
		return "commercial"
	}
	return "scientific"
}

// Config is the common generator configuration.
type Config struct {
	// Nodes is the number of DSM nodes (16 in the paper).
	Nodes int
	// Seed makes generation deterministic.
	Seed int64
	// Scale multiplies the default problem size; tests use small scales,
	// the benchmark harness uses 1.0.
	Scale float64
	// Repeat multiplies the workload's run length — iterations,
	// transactions, requests — WITHOUT growing its data-structure
	// footprint. Scale grows the problem (and with it the per-generator
	// state); Repeat only lengthens the trace, which is what makes
	// paper-scale runs affordable now that generation streams in constant
	// memory. Zero or negative means 1.
	Repeat float64
}

// normalize fills in zero fields with defaults.
func (c Config) normalize() Config {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Repeat <= 0 {
		c.Repeat = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaled returns max(min, int(base*scale)).
func scaled(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		return min
	}
	return v
}

// repeated applies the Repeat run-length multiplier to a count, never going
// below one. At Repeat=1 it is the identity, which is what keeps the default
// traces (and every pinned golden) byte-identical.
func repeated(base int, repeat float64) int {
	v := int(float64(base) * repeat)
	if v < 1 {
		return 1
	}
	return v
}

// TimingProfile carries the per-workload characteristics the timing model
// needs. The stall-fraction targets are taken from Figure 14's baseline
// breakdown and the MLP/lookahead values from Table 3.
type TimingProfile struct {
	// BusyFraction is the fraction of baseline execution time spent
	// committing instructions.
	BusyFraction float64
	// OtherStallFraction is the fraction spent on non-coherent stalls
	// (private misses, pipeline stalls).
	OtherStallFraction float64
	// CoherentStallFraction is the fraction spent stalled on coherent
	// read misses — the component TSE attacks.
	CoherentStallFraction float64
	// MLP is the consumption memory-level parallelism (average coherent
	// read misses outstanding when at least one is outstanding).
	MLP float64
	// Lookahead is the stream lookahead Table 3 derives for the workload.
	Lookahead int
}

// Validate checks that the fractions form a distribution.
func (p TimingProfile) Validate() error {
	sum := p.BusyFraction + p.OtherStallFraction + p.CoherentStallFraction
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload: timing fractions sum to %v, want 1.0", sum)
	}
	if p.MLP < 1 {
		return fmt.Errorf("workload: MLP %v < 1", p.MLP)
	}
	if p.Lookahead <= 0 {
		return fmt.Errorf("workload: lookahead must be positive")
	}
	return nil
}

// Generator produces the global interleaved access stream of one workload.
//
// Emit is the only way to generate: it pushes the globally ordered stream one
// access at a time, holding only the generator's fixed problem state (graphs,
// record groups, interaction lists) — never a buffer proportional to the
// trace length — so arbitrarily long traces generate in constant memory.
// Callers compose it directly with the coherence engine
// (coherence.Engine.RunSource / RunFrom take gen.Emit as their source).
type Generator interface {
	// Name returns the workload name as used in the paper's figures.
	Name() string
	// Class returns the workload class.
	Class() Class
	// Emit streams the globally ordered accesses to yield, one at a time.
	// A non-nil error from yield aborts emission promptly and is returned.
	Emit(yield func(mem.Access) error) error
	// Timing returns the workload's timing profile.
	Timing() TimingProfile
}

// Spec describes one registered workload.
type Spec struct {
	// Name is the canonical lower-case name ("em3d", "db2", ...).
	Name string
	// Class is the workload class.
	Class Class
	// Parameters summarises the Table 2 configuration being modelled.
	Parameters string
	// Extra marks workloads outside the default evaluation suite (the
	// cross-workload mixes): ByName finds them and every pipeline accepts
	// them, but suite-wide experiments do not iterate them by default, so
	// the pinned per-suite goldens are independent of how many extras are
	// registered.
	Extra bool
	// New constructs a generator.
	New func(Config) Generator
}

// Registry returns every workload: the paper's seven applications in
// presentation order, followed by the extended scenario matrix.
func Registry() []Spec {
	return []Spec{
		{Name: "em3d", Class: Scientific,
			Parameters: "400K nodes, degree 2, span 5, 15% remote",
			New:        func(c Config) Generator { return NewEM3D(c) }},
		{Name: "moldyn", Class: Scientific,
			Parameters: "19652 molecules, boxsize 17, 2.56M max interactions",
			New:        func(c Config) Generator { return NewMoldyn(c) }},
		{Name: "ocean", Class: Scientific,
			Parameters: "514x514 grid, 9600s relaxations, 20K res., err. tol. 1e-07",
			New:        func(c Config) Generator { return NewOcean(c) }},
		{Name: "apache", Class: Commercial,
			Parameters: "16K connections, fastCGI, worker threading model",
			New:        func(c Config) Generator { return NewWebServer(c, "Apache") }},
		{Name: "db2", Class: Commercial,
			Parameters: "100 warehouses (10 GB), 64 clients, 450 MB buffer pool",
			New:        func(c Config) Generator { return NewOLTP(c, "DB2") }},
		{Name: "oracle", Class: Commercial,
			Parameters: "100 warehouses (10 GB), 16 clients, 1.4 GB SGA",
			New:        func(c Config) Generator { return NewOLTP(c, "Oracle") }},
		{Name: "zeus", Class: Commercial,
			Parameters: "16K connections, fastCGI",
			New:        func(c Config) Generator { return NewWebServer(c, "Zeus") }},
		// Extended scenario matrix (beyond the paper's seven applications):
		// the same Section 4 methodology — synthesise the sharing behaviour,
		// not the computation — applied to workload classes the paper never
		// measured. See each generator's doc comment for the sharing texture.
		{Name: "memkv", Class: Commercial,
			Parameters: "memcached-style KV store, Zipf(1.07) keys, 90/10 GET/SET",
			New:        func(c Config) Generator { return NewKVStore(c) }},
		{Name: "pagerank", Class: Scientific,
			Parameters: "24K-vertex scale-free graph, 16 hubs, 30% cut edges",
			New:        func(c Config) Generator { return NewPageRank(c) }},
		{Name: "cdn", Class: Commercial,
			Parameters: "600 multi-block objects, Zipf(1.05) popularity, origin refresh",
			New:        func(c Config) Generator { return NewCDN(c) }},
		// Cross-workload mixes (Extra: addressable everywhere, excluded from
		// the default suite iteration so the suite goldens stay pinned).
		{Name: "mix", Class: Commercial, Extra: true,
			Parameters: "memkv + cdn colocated, phase-alternating 64-access bursts",
			New:        func(c Config) Generator { return NewMix(c) }},
		{Name: "mix-sci-com", Class: Commercial, Extra: true,
			Parameters: "em3d + db2 colocated, phase-alternating 64-access bursts",
			New:        func(c Config) Generator { return NewMixSciCom(c) }},
	}
}

// Names returns the default evaluation suite's workload names in order — the
// paper's seven applications plus the extended scenario matrix, excluding the
// Extra cross-workload mixes. Suite-wide experiments iterate this list.
func Names() []string {
	var names []string
	for _, s := range Registry() {
		if !s.Extra {
			names = append(names, s.Name)
		}
	}
	return names
}

// AllNames returns every registered workload name in order, including the
// Extra cross-workload mixes.
func AllNames() []string {
	specs := Registry()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ByName looks up a workload by its canonical name.
func ByName(name string) (Spec, bool) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// blockAddr builds a block-aligned address (64-byte blocks) within a named
// region. Regions keep the different data structures of a workload from
// aliasing.
func blockAddr(region int, index int) mem.Addr {
	const regionBits = 32
	return mem.Addr(uint64(region)<<regionBits | uint64(index)*mem.DefaultBlockSize)
}

// sortedKeys returns the keys of a map in sorted order (deterministic
// iteration for generation).
func sortedKeys(m map[int]struct{}) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
