package tsm

// Observability facade: metrics, stage tracing and progress reporting for
// the replay/sweep engine, re-exported from internal/obs so callers of the
// public API (and the CLIs) can attach instrumentation without importing
// internal packages. Everything is opt-in — the zero Instrumentation is a
// no-op and costs the un-instrumented paths nothing (a nil pointer check,
// pinned to zero allocations by the obs tests).

import (
	"io"

	"tsm/internal/obs"
)

// Metrics is a registry of atomic counters, gauges and log-bucket
// histograms. Attach one via Instrumentation to collect the replay engine's
// counters (see internal/pipeline's metric-name table); snapshot it with
// WriteJSON/WriteFile. Safe for concurrent use.
type Metrics = obs.Registry

// MetricsSnapshot is the JSON shape a Metrics registry snapshots to.
type MetricsSnapshot = obs.Snapshot

// Tracer records lightweight stage spans (decode pass, per-chunk decodes,
// per-consumer runs) and exports them in the Chrome trace-event format:
// load the file at chrome://tracing or https://ui.perfetto.dev. Safe for
// concurrent use.
type Tracer = obs.Tracer

// SeriesSet collects one windowed time-series per pipeline consumer: epoch
// samples of live cumulative state (coverage, occupancy, per-epoch latency
// quantiles), keyed by event sequence number. Attach one via Instrumentation
// and the replay engine pumps samples at chunk boundaries; export with
// WriteJSON/WriteFile. Safe for concurrent use.
type SeriesSet = obs.SeriesSet

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTracer returns an empty stage tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewSeriesSet returns an empty time-series set. The facade auto-sizes the
// sampling interval from the trace's event count when the file is indexed
// (targeting obs.DefaultSeriesPoints samples); SetInterval beforehand to
// override.
func NewSeriesSet() *SeriesSet { return obs.NewSeriesSet() }

// Instrumentation bundles the optional observability attachments of one
// replay or sweep call. The zero value disables everything; each field is
// independent, so any subset may be set.
type Instrumentation struct {
	// Metrics, when non-nil, collects the engine's counters, gauges and
	// backpressure histograms for the call.
	Metrics *Metrics
	// Tracer, when non-nil, records one span per pipeline stage.
	Tracer *Tracer
	// Progress, when non-nil, receives periodic one-line throughput/ETA
	// reports during the call (the CLIs pass os.Stderr, keeping stdout
	// reports byte-identical to un-instrumented runs).
	Progress io.Writer
	// Series, when non-nil, collects per-consumer time-series of live
	// cumulative state, sampled at chunk boundaries during the run.
	Series *SeriesSet
	// Manifest, when non-nil, records the run's provenance: trace identity
	// (content hash, codec version, workload metadata), replay settings,
	// per-stage wall times, and the final metrics snapshot when Metrics is
	// also set.
	Manifest *RunManifest
}

// startProgress launches the progress meter when requested (nil otherwise —
// and the nil Progress handle's Stop is a no-op).
func (ins Instrumentation) startProgress(label string, m *Metrics, fraction func() float64) *obs.Progress {
	if ins.Progress == nil {
		return nil
	}
	return obs.StartProgress(obs.ProgressConfig{
		W:        ins.Progress,
		Label:    label,
		Events:   m.Counter("pipeline.events_decoded"),
		Fraction: fraction,
	})
}

// tseConsumerNames labels the two consumers of the TSE evaluation fan-out
// in metrics, trace lanes and series: the baseline timing run and the TSE
// timing run, whose own TSE system also yields the coverage report.
func tseConsumerNames() []string { return []string{"timing-base", "timing-tse"} }
