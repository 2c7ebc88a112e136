// Package coherence implements the functional cache-coherence engine that
// converts raw workload accesses into the classified event stream the rest
// of the repository consumes. It models an infinite private cache per node
// and a full-map directory. With nothing ever evicted, the directory is the
// whole cache state: node n holds block b exactly when n is a sharer of b or
// the owner of its dirty copy. The only misses are cold misses and coherence
// misses — the misses the paper's trace-driven evaluation streams, which
// dominate as caches grow. Every access is classified as a hit, a private
// (cold) miss, a coherent read miss ("consumption"), or a write, and the
// corresponding trace events are emitted in global order.
//
// This corresponds to the paper's trace-driven methodology: traces collected
// with in-order execution and no memory-system stalls (Section 4), which is
// exactly a functional simulation.
//
// The directory here (directory.go) is the MSI sharing state only: one flat
// table of per-block entries. The paper's CMOB-pointer extension of the
// directory (Section 3.2) serves stream lookup, not classification, and
// lives with the rest of the TSE in internal/tse.
package coherence

import (
	"fmt"

	"tsm/internal/mem"
	"tsm/internal/trace"
)

// Classification is the outcome of one access.
type Classification uint8

const (
	// Hit means the access was satisfied by the node's private cache.
	Hit Classification = iota
	// PrivateMiss is a read miss with no coherence involvement (a cold
	// miss to data last written by this node or never written).
	PrivateMiss
	// Consumption is a coherent read miss that is not a spin: the unit of
	// measurement throughout the paper.
	Consumption
	// SpinMiss is a coherent read miss that is part of a lock/barrier
	// spin and therefore excluded from consumptions.
	SpinMiss
	// WriteHit is a store that hit a locally writable copy.
	WriteHit
	// WriteMiss is a store that required obtaining ownership.
	WriteMiss
)

// String implements fmt.Stringer.
func (c Classification) String() string {
	switch c {
	case Hit:
		return "hit"
	case PrivateMiss:
		return "private-miss"
	case Consumption:
		return "consumption"
	case SpinMiss:
		return "spin-miss"
	case WriteHit:
		return "write-hit"
	case WriteMiss:
		return "write-miss"
	default:
		return fmt.Sprintf("Classification(%d)", uint8(c))
	}
}

// Config parameterises the engine.
type Config struct {
	// Nodes is the number of nodes, in [1, mem.MaxNodes].
	Nodes int
	// Geometry is the block geometry.
	Geometry mem.Geometry
	// PointersPerEntry is ignored: classification keeps no CMOB pointers
	// (the TSE's pointer table lives in internal/tse). The field remains
	// only because the benchmark harness still sets it.
	PointersPerEntry int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > mem.MaxNodes {
		return fmt.Errorf("coherence: node count %d out of range [1,%d]", c.Nodes, mem.MaxNodes)
	}
	return c.Geometry.Validate()
}

// Stats accumulates per-engine counters.
type Stats struct {
	Accesses      uint64
	Hits          uint64
	PrivateMisses uint64
	Consumptions  uint64
	SpinMisses    uint64
	WriteHits     uint64
	WriteMisses   uint64
	Invalidations uint64
}

// Engine is the functional coherence engine. Its directory is its whole
// state: each access makes one directory lookup, and the entry answers
// whether the node's infinite cache holds the block.
type Engine struct {
	cfg   Config
	dir   *directory
	stats Stats
}

// New builds an engine. It panics on an invalid configuration.
func New(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{cfg: cfg, dir: newDirectory(cfg.Geometry)}
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Result describes the classification of one access.
type Result struct {
	Class    Classification
	Block    mem.BlockAddr
	Producer mem.NodeID
	// Invalidated is the set of nodes whose copies a write invalidated.
	Invalidated SharerSet
}

// AccessEmit processes one access, updates the directory (which is the
// caches' state), hands the classified events to emit as they are produced
// (with zero Seq — sequence numbers are the caller's to assign, see
// RunSource), and returns the classification. A nil emit classifies without
// recording.
func (e *Engine) AccessEmit(a mem.Access, emit func(trace.Event)) Result {
	if int(a.Node) < 0 || int(a.Node) >= e.cfg.Nodes {
		panic(fmt.Sprintf("coherence: access from node %d outside [0,%d)", a.Node, e.cfg.Nodes))
	}
	e.stats.Accesses++
	b := e.cfg.Geometry.BlockOf(a.Addr)
	ent := e.dir.entry(b)
	if a.Type == mem.Write || a.Type == mem.AtomicRMW {
		return e.write(a, b, ent, emit)
	}
	return e.read(a, b, ent, emit)
}

func (e *Engine) read(a mem.Access, b mem.BlockAddr, ent *dirEntry, emit func(trace.Event)) Result {
	if ent.holds(a.Node) {
		e.stats.Hits++
		return Result{Class: Hit, Block: b}
	}
	rd := ent.read(a.Node)
	if !rd.coherent {
		e.stats.PrivateMisses++
		if emit != nil {
			emit(trace.Event{Kind: trace.KindReadMiss, Node: a.Node, Block: b, Producer: mem.InvalidNode})
		}
		return Result{Class: PrivateMiss, Block: b, Producer: rd.producer}
	}
	if a.Spin {
		e.stats.SpinMisses++
		return Result{Class: SpinMiss, Block: b, Producer: rd.producer}
	}
	e.stats.Consumptions++
	if emit != nil {
		emit(trace.Event{Kind: trace.KindConsumption, Node: a.Node, Block: b, Producer: rd.producer})
	}
	return Result{Class: Consumption, Block: b, Producer: rd.producer}
}

func (e *Engine) write(a mem.Access, b mem.BlockAddr, ent *dirEntry, emit func(trace.Event)) Result {
	// A write hit requires the dirty copy; a write to a shared copy is an
	// upgrade, which still goes through the directory.
	if ent.state == modified && ent.owner == a.Node {
		e.stats.WriteHits++
		if emit != nil {
			emit(trace.Event{Kind: trace.KindWrite, Node: a.Node, Block: b, Producer: mem.InvalidNode})
		}
		return Result{Class: WriteHit, Block: b}
	}
	wr := ent.write(a.Node)
	e.stats.Invalidations += uint64(wr.invalidated.Count())
	e.stats.WriteMisses++
	if emit != nil {
		emit(trace.Event{Kind: trace.KindWrite, Node: a.Node, Block: b, Producer: mem.InvalidNode})
	}
	return Result{Class: WriteMiss, Block: b, Invalidated: wr.invalidated}
}

// AccessSource pushes a globally ordered access stream to a yield callback,
// one access at a time. A non-nil error from yield must abort the push
// promptly and be returned unchanged. workload.Generator.Emit satisfies this
// shape directly, so a generator streams into the engine with no intermediate
// slice: eng.RunSource(gen.Emit, sink).
type AccessSource func(yield func(mem.Access) error) error

// RunSource processes an access source, emitting classified events (with
// dense sequence numbers assigned in emission order) to emit as they are
// produced. This is the engine's primary entry point: generation, coherence
// classification and the caller's sink compose one access at a time, so the
// whole generate→classify→encode pipeline runs in memory bounded by the
// source's own state, never the trace length. A non-nil error from emit
// aborts the run immediately — a dead sink (full disk, closed pipe) must not
// cost the rest of the generation — and is returned; an error from the
// source itself is returned as-is.
func (e *Engine) RunSource(src AccessSource, emit func(trace.Event) error) error {
	var seq uint64
	var emitErr error
	numbered := func(ev trace.Event) {
		if emitErr != nil {
			return
		}
		ev.Seq = seq
		seq++
		emitErr = emit(ev)
	}
	err := src(func(a mem.Access) error {
		e.AccessEmit(a, numbered)
		return emitErr
	})
	if emitErr != nil {
		return emitErr
	}
	return err
}

// RunFrom processes an access source and materializes the classified trace.
func (e *Engine) RunFrom(src AccessSource) (*trace.Trace, error) {
	tr := &trace.Trace{}
	err := e.RunSource(src, func(ev trace.Event) error {
		tr.Events = append(tr.Events, ev)
		return nil
	})
	return tr, err
}
