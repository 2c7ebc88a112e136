package tsm

// Configurable file replay: how a saved trace is opened and decoded. Trace
// files carry a chunk index (internal/stream, codec.go), so they can be
// decoded inline or by a pool of parallel per-chunk workers, mapped into
// memory, and replayed from an arbitrary event range without decoding the
// prefix. ReplayConfig selects those behaviours; the zero value decodes
// each chunk inline on the replay's producer goroutine. The *With functions
// here are the only file replay entry points, and all three run through one
// scaffold (replayFile): a single open reads the header and index that the
// run manifest and the series interval need, so every decode setting shares
// one code path and stays bit-identical (pinned by differential tests at
// 0/1/4/8 workers across all workloads).

import (
	"fmt"
	"path/filepath"

	"tsm/internal/obs"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
)

// ReplayConfig selects how a trace file is decoded during replay. The zero
// value decodes the whole file inline, one chunk at a time.
type ReplayConfig struct {
	// DecodeWorkers is the number of per-chunk decode goroutines: 0
	// decodes each chunk inline on the replay's producer goroutine, > 0
	// uses that many workers, and < 0 one per core.
	DecodeWorkers int
	// From and To bound replay to events with sequence numbers in
	// [From, To); To == 0 means the end of the trace. Events keep the
	// sequence numbers they have in the full trace.
	From, To uint64
	// Mmap maps the trace file into memory (stream.OpenFileMmap) so chunks
	// decode straight out of the mapped pages — no per-chunk read syscall,
	// no copy. It changes only the byte source; on platforms without mmap
	// support the mapping quietly degrades to ReadAt. Output is
	// byte-identical either way.
	Mmap bool
}

// ranged reports whether the config restricts replay to an event sub-range.
func (rc ReplayConfig) ranged() bool { return rc.From > 0 || rc.To > 0 }

// openFile opens path for replay under rc, with ins's metrics and tracer
// attached to the decoder.
func (rc ReplayConfig) openFile(path string, ins Instrumentation) (*stream.Reader, error) {
	return stream.OpenFile(path, stream.Options{
		Workers: rc.DecodeWorkers,
		From:    rc.From,
		To:      rc.To,
		Mmap:    rc.Mmap,
		Metrics: ins.Metrics,
		Tracer:  ins.Tracer,
	})
}

// replayFile is the one scaffold of every file replay: it opens path under
// rc, records the run in an attached manifest from the opened reader (a
// failed open leaves the path and settings only), sizes an attached series
// from the reader's index, runs eval under the progress meter as the
// manifest stage "replay" (op "sweep": "sweep"), then closes the reader
// and finalizes the manifest. eval resolves its own consumer names.
func replayFile[T any](path, op, sweep string, rc ReplayConfig, ins Instrumentation, eval func(pipeline.Config, *stream.Reader) (T, error)) (T, error) {
	var zero T
	stage := "replay"
	if op == "sweep" {
		stage = "sweep"
	}
	openDone := ins.Manifest.stage("open")
	f, err := rc.openFile(path, ins)
	openDone()
	ins.Manifest.begin(op, path, rc, sweep, f)
	if err != nil {
		return zero, err
	}
	ins.sizeSeries(f.Index().Events, rc)
	m := ins.Metrics
	if m == nil && ins.Progress != nil {
		m = NewMetrics() // a private registry gives the meter a decode counter to watch
	}
	pcfg := pipeline.Config{Metrics: m, Tracer: ins.Tracer, Series: ins.Series}
	p := ins.startProgress(stage+" "+filepath.Base(path), m, f.Fraction)
	runDone := ins.Manifest.stage(stage)
	out, err := eval(pcfg, f)
	runDone()
	p.Stop()
	if err = stream.CloseMerge(f, err); err != nil {
		return zero, fmt.Errorf("tsm: %sing %s: %w", stage, path, err) // replaying, sweeping
	}
	ins.Manifest.finalize(m)
	return out, nil
}

// sizeSeries sizes an attached SeriesSet that has no explicit interval to
// land about obs.DefaultSeriesPoints samples across the replayed range of a
// trace of the given event count.
func (ins Instrumentation) sizeSeries(events uint64, rc ReplayConfig) {
	if ins.Series == nil || events == 0 {
		return
	}
	n := events
	if rc.ranged() {
		lo, hi := rc.From, rc.To
		if hi == 0 || hi > n {
			hi = n
		}
		if lo < hi {
			n = hi - lo
		}
	}
	ins.Series.EnsureInterval(max(n/obs.DefaultSeriesPoints, 1))
}

// EvaluateTSEFileWith evaluates the paper's TSE configuration on a saved
// trace through the fused streamed pipeline: the file is decoded exactly
// once and the single pass feeds both timing consumers (see
// evaluateTSESourceWith), using the generation metadata embedded in the file.
// rc configures the decode side — inline (the zero value), parallel
// per-chunk workers, mmap, or a bounded event range — and ins attaches
// optional instrumentation (the zero value attaches none). The trace is
// never materialized, and the Report for a full-range replay is
// bit-identical to EvaluateTSE over LoadTrace's events at any worker count.
func EvaluateTSEFileWith(path string, rc ReplayConfig, ins Instrumentation) (Report, error) {
	return replayFile(path, "replay-tse", "", rc, ins, func(pcfg pipeline.Config, f *stream.Reader) (Report, error) {
		return evaluateTSESourceWith(pcfg, f, f.Meta())
	})
}

// EvaluateAllFileWith runs the Figure 12 comparison on a saved trace through
// the fused streamed pipeline: the file is decoded exactly once and the
// single pass feeds every model (see evaluateAllSourceWith), with the decode
// side and instrumentation configured as for EvaluateTSEFileWith. The
// reports are identical to ComparePrefetchers over the loaded trace, in the
// same order; consumers are labelled with their model names.
func EvaluateAllFileWith(path string, rc ReplayConfig, ins Instrumentation) ([]Report, error) {
	return replayFile(path, "replay-all", "", rc, ins, func(pcfg pipeline.Config, f *stream.Reader) ([]Report, error) {
		return evaluateAllSourceWith(pcfg, f, f.Meta())
	})
}

// EvaluateTSESweepFileWith runs a named TSE sweep over a saved trace with
// exactly one decode of the file. The sweeps are "streams" (the Figure 7
// study — one to four compared streams, unconstrained hardware), "lookahead"
// (Figure 8 — stream lookahead 1 to 24, two compared streams) and "svb"
// (Figure 9 — SVB capacity from 512 bytes to unlimited, unlimited CMOB).
// The whole sensitivity study — every cell of the sweep — rides a single
// bounded-memory pass through the ring fan-out engine, using the generation
// metadata embedded in the file. That pass may itself be decoded by parallel
// per-chunk workers,
// or bounded to an event range (rc); per-cell consumer throughput lands in
// the attached metrics, one trace lane per cell labelled "LA=8" and so on.
func EvaluateTSESweepFileWith(path, sweep string, rc ReplayConfig, ins Instrumentation) ([]SweepCell, error) {
	return replayFile(path, "sweep", sweep, rc, ins, func(pcfg pipeline.Config, f *stream.Reader) ([]SweepCell, error) {
		return evaluateTSESweepSourceWith(pcfg, f, f.Meta(), sweep)
	})
}
