package tsm

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"tsm/internal/trace"
)

// heapSink discards events and samples the live heap every 2^16 of them,
// after a forced collection so each sample is exact rather than as of the
// last natural GC.
type heapSink struct {
	events uint64
	peak   uint64
	sample []metrics.Sample
}

func newHeapSink() *heapSink {
	return &heapSink{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (s *heapSink) Write(trace.Event) error {
	if s.events&(1<<16-1) == 0 {
		runtime.GC()
		metrics.Read(s.sample)
		if v := s.sample[0].Value.Uint64(); v > s.peak {
			s.peak = v
		}
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
