package tsm

// Configurable file replay: how a saved trace is opened and decoded. Trace
// files carry a chunk index (internal/stream, codec.go), so they can be
// decoded inline or by a pool of parallel per-chunk workers, mapped into
// memory, and replayed from an arbitrary event range without decoding the
// prefix. ReplayConfig selects those behaviours; the zero value decodes
// each chunk inline on the replay's producer goroutine. The *With functions
// here are the only file replay entry points, so every decode setting
// shares one code path and stays bit-identical (pinned by differential
// tests at 0/1/4/8 workers across all workloads).

import (
	"fmt"
	"path/filepath"

	"tsm/internal/obs"
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

// beginFileRun primes the provenance-side attachments before a file replay:
// the manifest records the trace's header-level identity and the replay
// settings, and — since the index gives the total event count up front — an
// attached SeriesSet with no explicit interval is auto-sized to land about
// obs.DefaultSeriesPoints samples across the run. Describe reads
// only the header and index footer, so this is cheap; describe errors are
// swallowed here because the open that follows reports them properly.
func (ins Instrumentation) beginFileRun(op, path, sweep string, rc ReplayConfig) {
	if ins.Series == nil && ins.Manifest == nil {
		return
	}
	info, err := stream.Describe(path)
	ins.Manifest.begin(op, path, rc, sweep, info, err)
	if ins.Series != nil && err == nil && info.Events > 0 {
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
// rc configures the decode side — inline (the zero value), parallel
// per-chunk workers, mmap, or a bounded event range — and ins attaches optional instrumentation (the zero value
// attaches none). The trace is never materialized, and the Report for a
// full-range replay is bit-identical to EvaluateTSE over LoadTrace's events
// at any worker count.
func EvaluateTSEFileWith(path string, rc ReplayConfig, ins Instrumentation) (Report, error) {
	ins.beginFileRun("replay-tse", path, "", rc)
	openDone := ins.Manifest.stage("open")
	f, err := rc.openFile(path, ins)
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
	f, err := rc.openFile(path, ins)
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
	f, err := rc.openFile(path, ins)
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
