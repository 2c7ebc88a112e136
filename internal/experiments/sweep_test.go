package experiments

import (
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// countingSource counts Next calls: one full pass over an N-event trace is
// exactly N+1 calls (the events plus one io.EOF).
type countingSource struct {
	src   stream.Source
	nexts int
}

func (c *countingSource) Next() (trace.Event, error) {
	c.nexts++
	return c.src.Next()
}

// TestFigureSweepsWalkTraceOncePerFigure is the sweep refactor's acceptance
// test: for every sweep figure, evaluating the figure's whole config list
// through the sweep evaluator must read each workload's stream exactly ONCE
// — N events + one EOF — not once per sweep cell, while every cell's result
// stays bit-identical to the pre-sweep per-cell EvaluateTSE pass (which,
// together with the goldens, pins the rendered tables byte for byte).
func TestFigureSweepsWalkTraceOncePerFigure(t *testing.T) {
	w := testWorkspace(t)
	for _, name := range w.WorkloadNames() {
		data, err := w.Data(name)
		if err != nil {
			t.Fatal(err)
		}
		figures := []struct {
			id   string
			cfgs []tse.Config
		}{
			{"fig7", fig7Configs(w.System())},
			{"fig8", fig8Configs(w.System())},
			{"fig9", fig9Configs(w.System())},
			{"fig10", fig10Configs(w.System(), data.Generator.Timing().Lookahead)},
			{"sensitivity-cell", []tse.Config{paperTSEConfig(w.System(), data.Generator.Timing().Lookahead)}},
		}
		for _, fig := range figures {
			if len(fig.cfgs) < 1 {
				t.Fatalf("%s: empty sweep", fig.id)
			}
			src := &countingSource{src: stream.TraceSource(data.Trace)}
			results, err := analysis.SweepWith(pipeline.Config{}, fig.cfgs, src)
			if err != nil {
				t.Fatal(err)
			}
			if want := data.Trace.Len() + 1; src.nexts != want {
				t.Errorf("%s/%s: %d-cell sweep read the stream %d times, want %d (once per figure, not per cell)",
					fig.id, name, len(fig.cfgs), src.nexts, want)
			}
			for i, cfg := range fig.cfgs {
				wantCov, _ := analysis.EvaluateTSE(cfg, data.Trace)
				if results[i].Coverage != wantCov {
					t.Errorf("%s/%s cell %d: sweep %+v != per-cell EvaluateTSE %+v",
						fig.id, name, i, results[i].Coverage, wantCov)
				}
			}
		}
	}
}

// TestSweepCellsMatchesPerCell: the drivers' shared helper must return the
// cells in config order with the same results as per-cell evaluation.
func TestSweepCellsMatchesPerCell(t *testing.T) {
	w := testWorkspace(t)
	data, err := w.Data("db2")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := fig7Configs(w.System())
	cells, err := sweepCells(w, data, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(cfgs) {
		t.Fatalf("sweepCells returned %d cells, want %d", len(cells), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, _ := analysis.EvaluateTSE(cfg, data.Trace)
		if cells[i] != want {
			t.Errorf("cell %d: %+v != %+v", i, cells[i], want)
		}
	}
}
