package analysis

import (
	"errors"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// consumerTrace builds a small real workload trace plus the matching TSE
// configuration.
func consumerTrace(t *testing.T, name string, nodes int) (*trace.Trace, tse.Config) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	gen := spec.New(workload.Config{Nodes: nodes, Seed: 5, Scale: 0.05})
	eng := coherence.New(coherence.Config{Nodes: nodes, Geometry: mem.DefaultGeometry(), PointersPerEntry: 2})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tse.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Lookahead = gen.Timing().Lookahead
	return tr, cfg
}

// TestModelConsumerMatchesSerial: every baseline consumer, driven through
// the per-event Source path, must equal the serial EvaluateModel loop.
func TestModelConsumerMatchesSerial(t *testing.T) {
	tr, _ := consumerTrace(t, "oracle", 8)
	for _, spec := range BaselineSpecs(8) {
		want := EvaluateModel(spec.New(), tr)
		c := NewModelConsumer(spec.New())
		if err := c.Run(stream.TraceSource(tr)); err != nil {
			t.Fatal(err)
		}
		if c.Result != want {
			t.Errorf("%s: consumer %+v, want %+v", spec.Name, c.Result, want)
		}
	}
}

// TestTSEConsumerMatchesEvaluateTSE: the TSE consumer over a stream must be
// bit-identical to the materialized EvaluateTSE on a real workload trace.
func TestTSEConsumerMatchesEvaluateTSE(t *testing.T) {
	tr, cfg := consumerTrace(t, "db2", 4)
	wantCov, wantFull := EvaluateTSE(cfg, tr)
	c := NewTSEConsumer(cfg)
	if err := c.Run(stream.TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	if c.Result != wantCov {
		t.Fatalf("streamed coverage %+v differs from materialized %+v", c.Result, wantCov)
	}
	if c.Full.Consumptions != wantFull.Consumptions || c.Full.Covered != wantFull.Covered ||
		c.Full.Discards != wantFull.Discards || c.Full.Traffic != wantFull.Traffic ||
		c.Full.CMOBPeakBytes != wantFull.CMOBPeakBytes {
		t.Fatalf("streamed full result differs: %+v vs %+v", c.Full, wantFull)
	}
}

// brokenSource fails immediately.
type brokenSource struct{}

var errBroken = errors.New("analysis test: source failed")

func (brokenSource) Next() (trace.Event, error) { return trace.Event{}, errBroken }

func TestTSEConsumerPropagatesError(t *testing.T) {
	cfg := tse.DefaultConfig()
	cfg.Nodes = 2
	if err := NewTSEConsumer(cfg).Run(brokenSource{}); !errors.Is(err, errBroken) {
		t.Fatalf("err = %v, want errBroken", err)
	}
}
