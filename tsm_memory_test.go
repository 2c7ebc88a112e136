package tsm

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// heapPeak is the peak of the live-heap samples taken so far. Each sample
// follows a forced collection, so it is exact rather than as of the last
// natural GC.
type heapPeak struct {
	peak   uint64
	sample []metrics.Sample
}

func (h *heapPeak) take() {
	if h.sample == nil {
		h.sample = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	}
	runtime.GC()
	metrics.Read(h.sample)
	h.peak = max(h.peak, h.sample[0].Value.Uint64())
}

// heapSink discards events and samples the live heap every 2^16 of them.
type heapSink struct {
	heapPeak
	events uint64
}

func newHeapSink() *heapSink { return &heapSink{} }

func (s *heapSink) Write(trace.Event) error {
	if s.events&(1<<16-1) == 0 {
		s.take()
	}
	s.events++
	return nil
}

func (s *heapSink) Close() error { return nil }

// TestStreamTraceHeapFlatAcrossRepeat is the generation memory bound:
// Repeat lengthens a trace without growing any problem state, so streaming
// it into a discarding sink must hold the same peak live heap at Repeat 4 as
// at Repeat 1 — within a quarter plus 256 KiB, far below what a stage that
// collects the accesses or events would keep alive (reported on failure). The scales
// are large enough that each run takes several samples and the workloads'
// touched footprint has saturated by the end of Repeat 1.
func TestStreamTraceHeapFlatAcrossRepeat(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"db2", 0.5}, {"em3d", 0.25}, {"mix-sci-com", 0.25}} {
		var peak [2]uint64
		var events [2]uint64
		for i, repeat := range []float64{1, 4} {
			sink := newHeapSink()
			if _, _, err := StreamTrace(c.name, Options{Nodes: 16, Scale: c.scale, Seed: 1, Repeat: repeat}, sink); err != nil {
				t.Fatal(err)
			}
			if sink.events <= 2<<16 { // fewer than three samples
				t.Fatalf("%s: %d events at Repeat %g give too few heap samples", c.name, sink.events, repeat)
			}
			peak[i], events[i] = sink.peak, sink.events
		}
		limit := peak[0] + peak[0]/4 + 256<<10
		t.Logf("%s: peak live heap %d KiB at Repeat 1 (%d events), %d KiB at Repeat 4 (%d events)",
			c.name, peak[0]>>10, events[0], peak[1]>>10, events[1])
		if peak[1] > limit {
			extra := (events[1] - events[0]) * uint64(unsafe.Sizeof(trace.Event{}))
			t.Errorf("%s: peak live heap grew from %d KiB to %d KiB (limit %d KiB) when Repeat went 1 -> 4; "+
				"holding the extra events would take about %d KiB, so generation is buffering the trace",
				c.name, peak[0]>>10, peak[1]>>10, limit>>10, extra>>10)
		}
	}
}

// heapSource forwards a trace reader's chunks and samples the live heap each
// time another 2^14 events have passed: it runs on the pipeline's producer
// goroutine while the consumers hold their state.
type heapSource struct {
	*stream.Reader
	heapPeak
	events uint64
}

func (s *heapSource) NextChunkSoA() (*stream.ChunkSoA, error) {
	c, err := s.Reader.NextChunkSoA()
	if err == nil {
		if s.events>>14 != (s.events+uint64(c.Len()))>>14 {
			s.take()
		}
		s.events += uint64(c.Len())
	}
	return c, err
}

// TestReplayHeapFlatAcrossRepeat is the replay memory bound: the consumers
// of file replay (the baseline and TSE timing runs) and a 64-cell TSE sweep
// hold the same peak live heap at Repeat 4 as at Repeat 1, within the
// generation bound's tolerance (a quarter plus 256 KiB). Each trace is
// decoded from a file, inline, so nothing but the consumers' own state can
// grow with the trace. Per-block state grows with the blocks a workload
// touches, so each run uses a scale at which that footprint has saturated
// by the end of Repeat 1 (db2 0.5 as in the generation bound; em3d is
// saturated from 0.05 up, and 0.1 keeps 64 cells quick). The other structure
// that legitimately grows with the trace is each node's CMOB, a log of its
// consumptions up to the configured capacity; the paper's 1.5 MB (262,144
// entries per node) would take millions of consumptions to fill, so these
// runs cap it at 1,024 entries, which a CMOB allocates in full on its first
// append. Every other setting is the paper configuration.
func TestReplayHeapFlatAcrossRepeat(t *testing.T) {
	for _, c := range []struct {
		name, workload string
		scale          float64
		run            func(src *heapSource, gen Generator, opts Options, cfg tse.Config) error
	}{
		{"replay", "db2", 0.5, func(src *heapSource, gen Generator, opts Options, cfg tse.Config) error {
			params := timingParams(gen, opts)
			base := timing.NewConsumer(params)
			params.TSE = &cfg
			return pipeline.Config{}.Run(src, base, timing.NewConsumer(params))
		}},
		{"sweep64", "em3d", 0.1, func(src *heapSource, gen Generator, opts Options, cfg tse.Config) error {
			cells := make([]tse.Config, 64)
			for i := range cells {
				cells[i] = cfg
				cells[i].Lookahead = 1 + i%32
			}
			_, err := analysis.SweepWith(pipeline.Config{}, cells, src)
			return err
		}},
	} {
		var peak, events [2]uint64
		for i, repeat := range []float64{1, 4} {
			opts := Options{Nodes: 16, Scale: c.scale, Seed: 1, Repeat: repeat}.normalize()
			gen, err := newGenerator(c.workload, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.tsm")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err := stream.NewWriter(f, traceMeta(gen, opts))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := StreamTrace(c.workload, opts, w); err != nil {
				t.Fatal(err)
			}
			if err := stream.CloseMerge(f, w.Close()); err != nil {
				t.Fatal(err)
			}
			r, err := stream.OpenFile(path, stream.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tseConfig(gen, opts)
			cfg.CMOBEntries = 1024
			src := &heapSource{Reader: r}
			if err := stream.CloseMerge(r, c.run(src, gen, opts, cfg)); err != nil {
				t.Fatal(err)
			}
			if src.events <= 2<<14 { // fewer than three samples
				t.Fatalf("%s: %d events at Repeat %g give too few heap samples", c.name, src.events, repeat)
			}
			peak[i], events[i] = src.peak, src.events
		}
		limit := peak[0] + peak[0]/4 + 256<<10
		t.Logf("%s (%s): peak live heap %d KiB at Repeat 1 (%d events), %d KiB at Repeat 4 (%d events)",
			c.name, c.workload, peak[0]>>10, events[0], peak[1]>>10, events[1])
		if peak[1] > limit {
			t.Errorf("%s (%s): peak live heap grew from %d KiB to %d KiB (limit %d KiB) when Repeat went 1 -> 4",
				c.name, c.workload, peak[0]>>10, peak[1]>>10, limit>>10)
		}
	}
}
