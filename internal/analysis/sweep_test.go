package analysis

import (
	"errors"
	"testing"

	"tsm/internal/coherence"
	"tsm/internal/mem"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// sweepTestTrace builds one real workload trace for the sweep tests.
func sweepTestTrace(t *testing.T) (*trace.Trace, tse.Config) {
	t.Helper()
	gen := workload.NewOLTP(workload.Config{Nodes: 4, Seed: 3, Scale: 0.05}, "DB2")
	eng := coherence.New(coherence.Config{Nodes: 4, Geometry: mem.DefaultGeometry()})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tse.DefaultConfig()
	cfg.Nodes = 4
	cfg.Lookahead = gen.Timing().Lookahead
	return tr, cfg
}

// sweepTestConfigs varies the lookahead across n cells from a base config.
func sweepTestConfigs(base tse.Config, n int) []tse.Config {
	lookaheads := []int{1, 2, 4, 8, 16, 24}
	cfgs := make([]tse.Config, n)
	for i := range cfgs {
		cfg := base
		cfg.Lookahead = lookaheads[i%len(lookaheads)]
		cfgs[i] = cfg
	}
	return cfgs
}

// countingSource counts Next calls: a full single pass over an N-event trace
// is exactly N+1 calls (the events plus one io.EOF).
type countingSource struct {
	src   stream.Source
	nexts int
}

func (c *countingSource) Next() (trace.Event, error) {
	c.nexts++
	return c.src.Next()
}

// TestSweepSinglePassMatchesPerCell is the sweep evaluator's contract in one
// test: evaluating N configurations through SweepWith must (a) walk the stream
// exactly ONCE — N events + one EOF — and (b) produce per-cell results
// bit-identical to one EvaluateTSE pass per cell.
func TestSweepSinglePassMatchesPerCell(t *testing.T) {
	tr, base := sweepTestTrace(t)
	for _, cells := range []int{1, 4, 16} {
		cfgs := sweepTestConfigs(base, cells)
		src := &countingSource{src: stream.TraceSource(tr)}
		got, err := SweepWith(pipeline.Config{}, cfgs, src)
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.Len() + 1; src.nexts != want {
			t.Fatalf("%d-cell sweep read the source %d times, want %d (one pass)", cells, src.nexts, want)
		}
		if len(got) != cells {
			t.Fatalf("sweep returned %d cells, want %d", len(got), cells)
		}
		for i, cfg := range cfgs {
			wantCov, wantFull := EvaluateTSE(cfg, tr)
			if got[i].Coverage != wantCov {
				t.Fatalf("cell %d coverage %+v differs from per-cell EvaluateTSE %+v", i, got[i].Coverage, wantCov)
			}
			if got[i].Full.Covered != wantFull.Covered || got[i].Full.Discards != wantFull.Discards ||
				got[i].Full.Traffic != wantFull.Traffic || got[i].Full.CMOBPeakBytes != wantFull.CMOBPeakBytes {
				t.Fatalf("cell %d full result differs: %+v vs %+v", i, got[i].Full, wantFull)
			}
		}
	}
}

// TestSweepEmpty: no configurations means no results and an unread source.
func TestSweepEmpty(t *testing.T) {
	tr, _ := sweepTestTrace(t)
	src := &countingSource{src: stream.TraceSource(tr)}
	got, err := SweepWith(pipeline.Config{}, nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty sweep returned %d cells", len(got))
	}
	if src.nexts != 0 {
		t.Fatalf("empty sweep read the source %d times", src.nexts)
	}
}

// TestSweepPropagatesSourceError: a terminal decode error must fail the
// sweep with that error.
func TestSweepPropagatesSourceError(t *testing.T) {
	_, base := sweepTestTrace(t)
	cfgs := sweepTestConfigs(base, 3)
	if _, err := SweepWith(pipeline.Config{}, cfgs, brokenSource{}); !errors.Is(err, errBroken) {
		t.Fatalf("err = %v, want errBroken", err)
	}
}
