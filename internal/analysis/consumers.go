package analysis

import (
	"io"

	"tsm/internal/obs"
	"tsm/internal/prefetch"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// The consumer adapters below let the coverage evaluations ride the
// single-decode fan-out engine in internal/pipeline: each implements
// Run(stream.Source) error (pipeline.Consumer, satisfied structurally) by
// draining its private tee of the stream and storing the result for the
// caller to collect once the pipeline run returns. The SweepWith evaluator
// (sweep.go) builds directly on TSEConsumer: one consumer per sweep cell,
// all riding a single pipeline.Run.
//
// Both consumers also satisfy pipeline.Sampler (again structurally): when
// the run attaches an obs.SeriesSet, the pipeline pumps SampleAt at chunk
// boundaries — on the consumer's own goroutine, between events — and the
// consumer records its live cumulative state as one epoch sample. The final
// flush lands a sample whose coverage equals the end-of-run report exactly
// (tse.System.Probe does not flush; see LiveStats).

// ModelSpec describes a lazily constructed baseline model.
type ModelSpec struct {
	// Name identifies the model in comparison tables.
	Name string
	// New constructs a fresh, independent model instance.
	New func() prefetch.Model
}

// BaselineSpecs returns the Figure 12 baseline prefetchers (stride and both
// GHB variants) for the given node count, in presentation order.
func BaselineSpecs(nodes int) []ModelSpec {
	strideCfg := prefetch.DefaultStrideConfig()
	strideCfg.Nodes = nodes
	gdc := prefetch.DefaultGHBConfig(prefetch.GDC)
	gdc.Nodes = nodes
	gac := prefetch.DefaultGHBConfig(prefetch.GAC)
	gac.Nodes = nodes
	return []ModelSpec{
		{Name: prefetch.NewStride(strideCfg).Name(), New: func() prefetch.Model { return prefetch.NewStride(strideCfg) }},
		{Name: prefetch.NewGHB(gdc).Name(), New: func() prefetch.Model { return prefetch.NewGHB(gdc) }},
		{Name: prefetch.NewGHB(gac).Name(), New: func() prefetch.Model { return prefetch.NewGHB(gac) }},
	}
}

// eachChunk drains src as column chunks — its own when it is a
// stream.SoASource (the pipeline's ring sources, the decoders), else batched
// from Next — calling fn on each. It returns nil at io.EOF and the
// source's error otherwise.
func eachChunk(src stream.Source, fn func(c *stream.ChunkSoA)) error {
	cols := stream.Columns(src, stream.DefaultChunkEvents)
	for {
		c, err := cols.NextChunkSoA()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(c)
	}
}

// ModelConsumer evaluates one baseline prefetcher over its tee of the
// stream. After a successful Run, Result holds the coverage summary.
type ModelConsumer struct {
	model prefetch.Model
	// Result is the coverage summary. It is updated live during Run (the
	// sampling pump reads it mid-stream) and complete once Run returns nil.
	Result CoverageResult
	series *obs.Series
}

// NewModelConsumer wraps a baseline prefetcher model.
func NewModelConsumer(m prefetch.Model) *ModelConsumer {
	return &ModelConsumer{model: m}
}

// Run implements the pipeline consumer contract. Result is updated IN PLACE
// after every event, which is what lets a sampling consumer read live
// cumulative state mid-run (SampleAt) — the counts at any chunk boundary
// are exactly the counts a run truncated there would report. The classify
// switch sweeps the dense kind column, and only the consumption and write
// rows the model observes are reassembled into events. Fetched/Discards are
// only known at Finish and set on a clean end of stream.
func (c *ModelConsumer) Run(src stream.Source) error {
	c.Result = CoverageResult{Name: c.model.Name()}
	m, res := c.model, &c.Result
	err := eachChunk(src, func(ch *stream.ChunkSoA) {
		for i, k := range ch.Kind {
			switch k {
			case trace.KindConsumption:
				res.Consumptions++
				if m.Consumption(ch.Event(i)) {
					res.Covered++
				}
			case trace.KindWrite:
				m.Write(ch.Event(i))
			}
		}
	})
	if err != nil {
		return err
	}
	res.Fetched, res.Discards = m.Finish()
	return nil
}

// AttachSeries implements pipeline.Sampler.
func (c *ModelConsumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample of the live
// cumulative coverage counts. Runs on the consumer's goroutine between
// events.
func (c *ModelConsumer) SampleAt(seq uint64, final bool) {
	if !c.series.Ready(seq, final) {
		return
	}
	c.series.Record(seq, map[string]float64{
		"consumptions": float64(c.Result.Consumptions),
		"covered":      float64(c.Result.Covered),
		"coverage":     c.Result.Coverage(),
	})
}

// TSEConsumer evaluates the trace-driven TSE coverage model over its tee of
// the stream. After a successful Run, Result holds the common coverage
// summary and Full the complete tse.Result (stream lengths, traffic, CMOB
// footprint).
type TSEConsumer struct {
	cfg tse.Config
	// Result is the coverage summary, valid after Run returns nil.
	Result CoverageResult
	// Full is the complete TSE result, valid after Run returns nil.
	Full   tse.Result
	series *obs.Series
	sys    *tse.System // live system while Run is in flight (sampling only)
}

// NewTSEConsumer wraps a TSE system model built from cfg at Run time.
func NewTSEConsumer(cfg tse.Config) *TSEConsumer {
	return &TSEConsumer{cfg: cfg}
}

// Run implements the pipeline consumer contract. The system is built here
// and exposed to SampleAt for the duration of the run, and driven one
// column chunk at a time through tse.System.RunColumns; the final numbers
// are bit-identical to EvaluateTSE over the equivalent in-memory trace.
// Finish runs on both the clean and the error ending, so the partial result
// accompanies a terminal error.
func (c *TSEConsumer) Run(src stream.Source) error {
	sys := tse.NewSystem(c.cfg)
	c.sys = sys
	err := eachChunk(src, func(ch *stream.ChunkSoA) {
		sys.RunColumns(ch.Kind, ch.Node, ch.Block)
	})
	c.sys = nil
	c.Full = sys.Finish()
	c.Result = TSECoverage(c.Full)
	return err
}

// AttachSeries implements pipeline.Sampler.
func (c *TSEConsumer) AttachSeries(s *obs.Series) { c.series = s }

// SampleAt implements pipeline.Sampler: one epoch sample probed from the
// live system — cumulative coverage plus the resident state (SVB occupancy,
// CMOB storage) the end-of-run result cannot show. Runs on the consumer's
// goroutine between events; outside Run (c.sys nil) it is a no-op.
func (c *TSEConsumer) SampleAt(seq uint64, final bool) {
	if c.sys == nil || !c.series.Ready(seq, final) {
		return
	}
	c.series.Record(seq, c.sys.Probe().Values())
}
