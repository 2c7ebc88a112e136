package workload

import (
	"errors"
	"iter"
	"math/rand"

	"tsm/internal/mem"
)

// Mix colocates several workloads on one machine — the cross-workload
// scenario none of the paper's single-application runs exhibits. The default
// mix pairs the key-value store with the content-distribution tier: a serving
// stack where short, Zipf-hot KV chains (frequent short streams) interleave
// with long ordered CDN payload runs (scientific-length streams) on the SAME
// nodes, so each node's consumption order alternates between the two
// workloads' textures. That phase alternation is what stresses the TSE's
// per-node stream following: streams are repeatedly interrupted and resumed,
// unlike any single workload in the suite.
//
// Mix is built directly on the streaming emission path: each part's Emit
// runs as a coroutine (iter.Pull over bursts) that hands the mixer one burst
// of up to mixChunk accesses per switch, and the mixer takes
// phase-alternating bursts from each live part in rng-shuffled order until
// all parts are exhausted. Memory is bounded by the parts' own state plus
// one burst per part — never by trace length — and the output is
// deterministic because the coroutines only run when the mixer asks.
//
// The mixer takes ANY parts; two are registered: "mix" (memkv + cdn, two
// commercial textures) and "mix-sci-com" (em3d + db2, a scientific texture
// alternating with a commercial one — the paper's two workload classes
// colocated on the same machine).
type Mix struct {
	cfg   Config
	name  string
	parts []Generator
}

// mixChunk is the burst length: how many consecutive accesses one part
// contributes before the mixer switches to the next, mirroring how colocated
// services timeshare a node between request handlers.
const mixChunk = 64

// newMix assembles a named mix from already-constructed parts.
func newMix(cfg Config, name string, parts ...Generator) *Mix {
	return &Mix{cfg: cfg, name: name, parts: parts}
}

// NewMix builds the memkv+cdn colocated mix. Both parts run over all nodes
// at the shared configuration; their address regions are disjoint by
// construction (regionKV* vs regionCDN*), so the mix stresses scheduling and
// stream interleaving rather than accidental aliasing.
func NewMix(cfg Config) *Mix {
	cfg = cfg.normalize()
	return newMix(cfg, "mix", NewKVStore(cfg), NewCDN(cfg))
}

// NewMixSciCom builds the em3d+db2 colocated mix: a scientific code's long,
// highly repetitive producer/consumer streams phase-alternating with an OLTP
// workload's short migratory streams on the same nodes — the cross-CLASS
// colocation none of the paper's runs exhibits. The parts' address regions
// are disjoint by construction (the graph regions vs regionOLTP*).
func NewMixSciCom(cfg Config) *Mix {
	cfg = cfg.normalize()
	return newMix(cfg, "mix-sci-com", NewEM3D(cfg), NewOLTP(cfg, "DB2"))
}

// Name implements Generator.
func (m *Mix) Name() string { return m.name }

// Class implements Generator: a colocated stack is commercial if any part
// serves commercial traffic (its noise floor and stream interruptions
// dominate the node's texture); a mix of purely scientific parts stays
// scientific.
func (m *Mix) Class() Class {
	for _, g := range m.parts {
		if g.Class() == Commercial {
			return Commercial
		}
	}
	return Scientific
}

// Timing implements Generator: the equal-share blend of the parts' profiles
// (each part owns half of every node's time), with the lookahead of the
// longer-lookahead part so the TSE can still run ahead on the CDN payload
// streams.
func (m *Mix) Timing() TimingProfile {
	var p TimingProfile
	for _, g := range m.parts {
		t := g.Timing()
		p.BusyFraction += t.BusyFraction
		p.OtherStallFraction += t.OtherStallFraction
		p.CoherentStallFraction += t.CoherentStallFraction
		p.MLP += t.MLP
		if t.Lookahead > p.Lookahead {
			p.Lookahead = t.Lookahead
		}
	}
	n := float64(len(m.parts))
	p.BusyFraction /= n
	p.OtherStallFraction /= n
	p.CoherentStallFraction /= n
	p.MLP /= n
	return p
}

// errBurstsStopped is returned into a part's Emit when the mixer stops
// pulling early; it is swallowed (an early stop is not a generation failure).
var errBurstsStopped = errors.New("workload: mix stopped pulling")

// bursts turns a part's push-style Emit into a sequence of bursts of
// mixChunk accesses (the last one possibly shorter). The burst slice is
// reused: it is valid until the consumer asks for the next one. Emit's
// error, if any, is stored in *err before the sequence ends.
func bursts(g Generator, err *error) iter.Seq[[]mem.Access] {
	return func(yield func([]mem.Access) bool) {
		burst := make([]mem.Access, 0, mixChunk)
		*err = g.Emit(func(a mem.Access) error {
			if burst = append(burst, a); len(burst) < mixChunk {
				return nil
			}
			if !yield(burst) {
				return errBurstsStopped
			}
			burst = burst[:0]
			return nil
		})
		if errors.Is(*err, errBurstsStopped) {
			*err = nil
		} else if *err == nil && len(burst) > 0 {
			yield(burst)
		}
	}
}

// Emit implements Generator: take phase-alternating bursts from each part,
// shuffling the visit order each round, until every part is exhausted. A
// part is marked done when it yields no burst.
func (m *Mix) Emit(yield func(mem.Access) error) error {
	rng := rand.New(rand.NewSource(m.cfg.Seed + 503))
	next := make([]func() ([]mem.Access, bool), len(m.parts))
	errs := make([]error, len(m.parts))
	for i, g := range m.parts {
		pull, stop := iter.Pull(bursts(g, &errs[i]))
		defer stop()
		next[i] = pull
	}

	order := make([]int, len(m.parts))
	for i := range order {
		order[i] = i
	}
	done := make([]bool, len(m.parts))
	for alive := len(m.parts); alive > 0; {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			if done[i] {
				continue
			}
			burst, ok := next[i]()
			if !ok {
				done[i] = true
				alive--
				continue
			}
			for _, a := range burst {
				if err := yield(a); err != nil {
					return err
				}
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
