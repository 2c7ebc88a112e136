package pipeline

// Domain time-series sampling. Config.Series attaches an obs.SeriesSet to
// the run; consumers that implement Sampler then get a periodic pump from
// their OWN source, at broadcast-chunk boundaries, telling them "now is a
// consistent moment to record an epoch sample". The pump runs on the
// consumer's goroutine between chunks — never mid-event, never from another
// goroutine — so a consumer's SampleAt may read its model state without
// locks, and the sample at sequence number N reflects exactly the events
// through N (which is what makes a final-epoch sample byte-identical to the
// end-of-run report).
//
// The boundary seq is captured when a chunk is ADOPTED, not when the pump
// fires: the consumer releases its slot back to the
// producer before the next take, and the slot's backing array may already be
// overwritten by the time the pump runs — the chunk's last event must not be
// re-read from the buffer.
//
// Cadence: one sample opportunity per broadcast chunk, filtered by the
// consumer's obs.Series.Ready (epoch interval, dedupe, final flush). With a
// nil Config.Series nothing here runs at all — sources carry a nil Sampler
// and the hot loop pays one pointer check per refill.

import "tsm/internal/obs"

// Sampler is the optional consumer interface for domain time series: a
// Consumer that also implements Sampler is handed a per-consumer Series
// (named by its metric label) before the run starts, then pumped at chunk
// boundaries while it runs. SampleAt is always invoked on the consumer's own
// goroutine, after it has fully processed every event up to and including
// seq; final marks the end-of-stream flush. Implementations decide whether a
// sample is due via the attached Series' Ready.
type Sampler interface {
	AttachSeries(s *obs.Series)
	SampleAt(seq uint64, final bool)
}

// samplers resolves the sampling hooks for a run: entry i is non-nil when
// Config.Series is attached and consumer i implements Sampler. Attachment
// (series creation under the consumer's label) happens here, on the caller's
// goroutine, before any consumer goroutine exists. Returns nil — disabling
// the pump entirely — when no consumer samples.
func (c Config) samplers(consumers []Consumer) []Sampler {
	if c.Series == nil {
		return nil
	}
	var out []Sampler
	for i, consumer := range consumers {
		smp, ok := consumer.(Sampler)
		if !ok {
			continue
		}
		if out == nil {
			out = make([]Sampler, len(consumers))
		}
		smp.AttachSeries(c.Series.Series(c.consumerLabel(i)))
		out[i] = smp
	}
	return out
}

// samplerAt returns entry i of a possibly-nil sampler slice.
func samplerAt(smps []Sampler, i int) Sampler {
	if i < len(smps) {
		return smps[i]
	}
	return nil
}

// sampleState is the boundary bookkeeping embedded in each consumer's
// ringSource: the seq of the newest adopted event, captured at chunk
// adoption (see the package comment on slot reuse).
type sampleState struct {
	sampler Sampler
	last    uint64
	seen    bool
}

// adopt records the boundary seq of a freshly adopted (never empty) chunk.
// The seq was captured when the producer filled the chunk, so adoption never
// reads the chunk's columns.
func (s *sampleState) adopt(b *bcastChunk) {
	if s.sampler != nil {
		s.last = b.last
		s.seen = true
	}
}

// pump offers the consumer a sample at the last adopted boundary. The final
// pump fires once; Series.Ready dedupes any further offers at the same seq.
func (s *sampleState) pump(final bool) {
	if s.sampler != nil && s.seen {
		s.sampler.SampleAt(s.last, final)
	}
}
