package analysis

import (
	"fmt"

	"tsm/internal/prefetch"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// CoverageResult is the common coverage/discard summary used to compare TSE
// with the baseline prefetchers (Figures 7–10 and 12). Coverage is the
// fraction of consumptions eliminated; discards are erroneously fetched
// blocks, also normalised to consumptions (and can therefore exceed 1).
type CoverageResult struct {
	// Name identifies the model.
	Name string
	// Consumptions is the number of consumption events evaluated.
	Consumptions uint64
	// Covered is the number of consumptions the model's buffer satisfied.
	Covered uint64
	// Fetched is the number of blocks the model moved into its buffer.
	Fetched uint64
	// Discards is the number of fetched blocks that were never used.
	Discards uint64
}

// Coverage returns Covered/Consumptions.
func (r CoverageResult) Coverage() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Consumptions)
}

// DiscardRate returns Discards/Consumptions.
func (r CoverageResult) DiscardRate() float64 {
	if r.Consumptions == 0 {
		return 0
	}
	return float64(r.Discards) / float64(r.Consumptions)
}

// String summarises the result.
func (r CoverageResult) String() string {
	return fmt.Sprintf("%s: coverage=%.1f%% discards=%.1f%%", r.Name, 100*r.Coverage(), 100*r.DiscardRate())
}

// EvaluateModel replays a trace through a baseline prefetcher model and
// returns its coverage summary.
func EvaluateModel(m prefetch.Model, tr *trace.Trace) CoverageResult {
	res := CoverageResult{Name: m.Name()}
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindConsumption:
			res.Consumptions++
			if m.Consumption(e) {
				res.Covered++
			}
		case trace.KindWrite:
			m.Write(e)
		}
	}
	res.Fetched, res.Discards = m.Finish()
	return res
}

// EvaluateTSE replays a trace through a TSE system model and returns both
// the common coverage summary and the full TSE result (stream lengths,
// traffic, CMOB footprint).
func EvaluateTSE(cfg tse.Config, tr *trace.Trace) (CoverageResult, tse.Result) {
	full := tse.NewSystem(cfg).Run(tr)
	return TSECoverage(full), full
}

// TSECoverage is the common coverage summary of a TSE result.
func TSECoverage(full tse.Result) CoverageResult {
	return CoverageResult{
		Name:         "TSE",
		Consumptions: full.Consumptions,
		Covered:      full.Covered,
		Fetched:      full.BlocksFetched,
		Discards:     full.Discards,
	}
}

// StreamLengthCDF converts a TSE stream-length histogram into the Figure 13
// series: for each length bucket, the cumulative fraction of all SVB hits
// contributed by streams no longer than that bucket.
func StreamLengthCDF(res tse.Result, buckets []int) []float64 {
	out := make([]float64, len(buckets))
	for i, b := range buckets {
		out[i] = res.StreamLengths.WeightedCumulativeFraction(b)
	}
	return out
}
