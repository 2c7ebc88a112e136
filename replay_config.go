package tsm

// Configurable file replay: how a saved trace is opened and decoded. Version
// 3 trace files carry a chunk index (internal/stream, codec.go), so they can
// be decoded by a pool of parallel per-chunk workers and replayed from an
// arbitrary event range without streaming the prefix. ReplayConfig selects
// those behaviours; the zero value is the classic serial streaming decode.
// The *With functions here are the only file replay entry points, so serial
// and parallel decode share one code path and stay bit-identical (pinned by
// differential tests at 1/4/8 workers across all workloads).

import (
	"errors"
	"fmt"
	"path/filepath"

	"tsm/internal/obs"
	"tsm/internal/stream"
)

// ReplayConfig selects how a trace file is decoded during replay. The zero
// value reproduces the classic behaviour: one streaming decode pass over the
// whole file.
type ReplayConfig struct {
	// DecodeWorkers selects parallel-by-chunk decode over the version 3
	// chunk index: > 0 uses that many decode goroutines (1 still takes the
	// indexed path, just without concurrency), < 0 picks one per core, and 0
	// keeps the serial streaming decoder. On version 1/2 files — which have
	// no index — parallel requests quietly fall back to the serial decoder
	// unless an event range is set (ranged replay needs the index).
	DecodeWorkers int
	// From and To bound replay to events with sequence numbers in
	// [From, To); To == 0 means the end of the trace. Events keep the
	// sequence numbers they have in the full trace. Requires a version 3
	// (indexed) trace file.
	From, To uint64
	// Mmap maps the trace file into memory (stream.OpenFileMmap) so decode
	// workers parse chunks straight out of the mapped pages — no per-chunk
	// read syscall, no copy. It implies the indexed open (per-core decode
	// workers unless DecodeWorkers says otherwise, like From/To); on
	// platforms without mmap support the mapping quietly degrades to ReadAt,
	// and on version 1/2 files the request falls back to the serial decoder
	// like any other parallel request. Output is byte-identical either way.
	Mmap bool
}

// ranged reports whether the config restricts replay to an event sub-range.
func (rc ReplayConfig) ranged() bool { return rc.From > 0 || rc.To > 0 }

// wantsIndex reports whether the config needs the indexed (seeking) open at
// all — any parallel-decode request, event range or mmap request does.
func (rc ReplayConfig) wantsIndex() bool {
	return rc.DecodeWorkers != 0 || rc.ranged() || rc.Mmap
}

// replaySource is what file replay needs from an open trace: the event
// stream, the embedded generation metadata, a completion fraction for
// progress/ETA, and a Close. Both the serial stream.FileReader and the
// parallel stream.ParallelReader satisfy it.
type replaySource interface {
	EventSource
	Meta() TraceMeta
	Fraction() float64
	Close() error
}

// openReplaySource opens path according to rc: the indexed parallel reader
// when parallel decode or an event range was requested, the serial streaming
// reader otherwise — or as the fallback when a parallel request hits a
// pre-index (version 1/2) file. A ranged request on an unindexed file is an
// error rather than a silently ignored range.
func openReplaySource(path string, rc ReplayConfig, ins Instrumentation) (replaySource, error) {
	if !rc.wantsIndex() {
		return stream.OpenFile(path)
	}
	workers := rc.DecodeWorkers
	if workers < 0 {
		workers = 0 // one per core
	}
	pr, err := stream.OpenFileParallel(path, stream.ParallelOptions{
		Workers: workers,
		From:    rc.From,
		To:      rc.To,
		Mmap:    rc.Mmap,
		Metrics: ins.Metrics,
		Tracer:  ins.Tracer,
	})
	if err == nil {
		return pr, nil
	}
	if errors.Is(err, stream.ErrNoIndex) && !rc.ranged() {
		return stream.OpenFile(path)
	}
	if errors.Is(err, stream.ErrNoIndex) {
		return nil, fmt.Errorf("tsm: replaying %s from event %d: %w (regenerate the trace, or replay without -from/-to)", path, rc.From, err)
	}
	return nil, err
}

// beginFileRun primes the provenance-side attachments before a file replay:
// the manifest records the trace's header-level identity and the replay
// settings, and — when the file is indexed, so the total event count is known
// up front — an attached SeriesSet with no explicit interval is auto-sized to
// land about obs.DefaultSeriesPoints samples across the run. Describe reads
// only the header and index footer, so this is cheap; describe errors are
// swallowed here because the open that follows reports them properly.
func (ins Instrumentation) beginFileRun(op, path, sweep string, rc ReplayConfig) {
	if ins.Series == nil && ins.Manifest == nil {
		return
	}
	info, err := stream.Describe(path)
	ins.Manifest.begin(op, path, rc, sweep, info, err)
	if ins.Series != nil && err == nil && info.Indexed && info.Events > 0 {
		n := info.Events
		if rc.ranged() {
			lo, hi := rc.From, rc.To
			if hi == 0 || hi > n {
				hi = n
			}
			if lo < hi {
				n = hi - lo
			}
		}
		interval := n / obs.DefaultSeriesPoints
		if interval == 0 {
			interval = 1
		}
		ins.Series.EnsureInterval(interval)
	}
}

// finishFileRun completes the manifest after the run: the trace content hash
// (its own timed stage) and the final metrics snapshot from the registry the
// engine actually wrote to.
func (ins Instrumentation) finishFileRun(m *Metrics) {
	ins.Manifest.finalize(m)
}

// EvaluateTSEFileWith evaluates the paper's TSE configuration on a saved
// trace through the fused streamed pipeline: the file is decoded exactly
// once and the single pass feeds all three consumers (see
// EvaluateTSESource), using the generation metadata embedded in the file.
// rc configures the decode side — serial streaming (the zero value),
// parallel per-chunk workers over the version 3 index, mmap, or a bounded
// event range — and ins attaches optional instrumentation (the zero value
// attaches none). The trace is never materialized, and the Report for a
// full-range replay is bit-identical to EvaluateTSE over LoadTrace's events
// at any worker count.
func EvaluateTSEFileWith(path string, rc ReplayConfig, ins Instrumentation) (Report, error) {
	ins.beginFileRun("replay-tse", path, "", rc)
	openDone := ins.Manifest.stage("open")
	f, err := openReplaySource(path, rc, ins)
	openDone()
	if err != nil {
		return Report{}, err
	}
	pcfg, m := ins.pipelineConfig(tseConsumerNames())
	p := ins.startProgress("replay "+filepath.Base(path), m, f.Fraction)
	runDone := ins.Manifest.stage("replay")
	rep, err := evaluateTSESourceWith(pcfg, f, f.Meta())
	runDone()
	p.Stop()
	if err = stream.CloseMerge(f, err); err != nil {
		return Report{}, fmt.Errorf("tsm: replaying %s: %w", path, err)
	}
	ins.finishFileRun(m)
	return rep, nil
}

// EvaluateAllFileWith runs the Figure 12 comparison on a saved trace through
// the fused streamed pipeline: the file is decoded exactly once and the
// single pass feeds every model (see EvaluateAllSource), with the decode
// side and instrumentation configured as for EvaluateTSEFileWith. The
// reports are identical to ComparePrefetchers over the loaded trace, in the
// same order; consumers are labelled with their model names.
func EvaluateAllFileWith(path string, rc ReplayConfig, ins Instrumentation) ([]Report, error) {
	ins.beginFileRun("replay-all", path, "", rc)
	openDone := ins.Manifest.stage("open")
	f, err := openReplaySource(path, rc, ins)
	openDone()
	if err != nil {
		return nil, err
	}
	pcfg, m := ins.pipelineConfig(nil) // names resolved from the model specs
	p := ins.startProgress("replay "+filepath.Base(path), m, f.Fraction)
	runDone := ins.Manifest.stage("replay")
	reports, err := evaluateAllSourceWith(pcfg, f, f.Meta())
	runDone()
	p.Stop()
	if err = stream.CloseMerge(f, err); err != nil {
		return nil, fmt.Errorf("tsm: replaying %s: %w", path, err)
	}
	ins.finishFileRun(m)
	return reports, nil
}

// EvaluateTSESweepFileWith runs a named TSE sweep (see TSESweeps) over a
// saved trace with exactly one decode of the file: the whole sensitivity
// study — every cell of the sweep — rides a single bounded-memory pass
// through the ring fan-out engine, using the generation metadata embedded in
// the file. That pass may itself be decoded by parallel per-chunk workers,
// or bounded to an event range (rc); per-cell consumer throughput lands in
// the attached metrics, one trace lane per cell labelled "LA=8" and so on.
func EvaluateTSESweepFileWith(path, sweep string, rc ReplayConfig, ins Instrumentation) ([]SweepCell, error) {
	ins.beginFileRun("sweep", path, sweep, rc)
	openDone := ins.Manifest.stage("open")
	f, err := openReplaySource(path, rc, ins)
	openDone()
	if err != nil {
		return nil, err
	}
	pcfg, m := ins.pipelineConfig(nil) // names resolved from the cell labels
	p := ins.startProgress("sweep "+filepath.Base(path), m, f.Fraction)
	runDone := ins.Manifest.stage("sweep")
	cells, err := evaluateTSESweepSourceWith(pcfg, f, f.Meta(), sweep)
	runDone()
	p.Stop()
	if err = stream.CloseMerge(f, err); err != nil {
		return nil, fmt.Errorf("tsm: sweeping %s: %w", path, err)
	}
	ins.finishFileRun(m)
	return cells, nil
}
