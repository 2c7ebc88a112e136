// Micro-benchmarks for the two layers the repo benchmark (bench/run.sh)
// cannot time in isolation. Every end-to-end path — generation, file replay,
// sweeps, the paper's tables and figures — is timed there, and allocation
// bounds are plain tests (tsm_alloc_test.go). Pass -benchscale to change the
// workload scale, e.g.
//
//	go test -run '^$' -bench 'TimingModel|Codec' -benchtime=1x -benchscale=0.05 .
package tsm

import (
	"bytes"
	"flag"
	"testing"

	"tsm/internal/experiments"
	"tsm/internal/stream"
	"tsm/internal/timing"
)

var benchScale = flag.Float64("benchscale", 0.1, "workload scale factor for benchmarks")

// benchData generates the db2 trace (16 nodes, seed 1) at the benchmark
// scale.
func benchData(b *testing.B) (*experiments.WorkloadData, *experiments.Workspace) {
	b.Helper()
	w := experiments.NewWorkspace(experiments.Options{Nodes: 16, Scale: *benchScale, Seed: 1})
	d, err := w.Data("db2")
	if err != nil {
		b.Fatal(err)
	}
	return d, w
}

// BenchmarkTimingModel measures the DSM timing model on one trace, baseline
// and with TSE. It is kept because it isolates the TSE state machine, which
// bounds replay, from decode and the ring.
func BenchmarkTimingModel(b *testing.B) {
	d, w := benchData(b)
	prof := d.Generator.Timing()
	cfg := w.System().DefaultTSE()
	cfg.Lookahead = prof.Lookahead
	b.Run("base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Simulate(d.Trace, timing.Params{
				System: w.System(), Profile: prof, Nodes: 16,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := timing.Simulate(d.Trace, timing.Params{
				System: w.System(), Profile: prof, Nodes: 16, TSE: &cfg,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodec measures raw encode and decode throughput of the binary
// trace format. It is kept because every bench/ workload mixes the codec
// with generation or consumers.
func BenchmarkCodec(b *testing.B) {
	d, _ := benchData(b)
	meta := stream.Meta{Workload: "db2", Nodes: 16, Scale: *benchScale, Seed: 1}
	encode := func(b *testing.B) *bytes.Buffer {
		var buf bytes.Buffer
		w, err := stream.NewWriter(&buf, meta)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stream.Copy(w, stream.TraceSource(d.Trace)); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		return &buf
	}
	encoded := encode(b)
	bytesPerEvent := float64(encoded.Len()) / float64(d.Trace.Len())
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			encode(b)
		}
		b.ReportMetric(bytesPerEvent, "bytes/event")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(encoded.Len()))
		for i := 0; i < b.N; i++ {
			r, err := stream.NewReader(bytes.NewReader(encoded.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stream.Collect(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(bytesPerEvent, "bytes/event")
	})
}
