//go:build !race

package tsm

// Allocation bounds for the hot paths: generation, decode, the ring
// broadcast and a TSE sweep. Allocation counts are deterministic where wall
// time is not, so they are plain tests with explicit bounds; wall time is
// measured by the repo benchmark (bench/run.sh). Every row runs on one input
// — db2, 16 nodes, scale 0.05, seed 1 — does one warm-up run, then measures
// one run by its runtime.MemStats Mallocs and TotalAlloc deltas. The
// GenerateStream rows take the minimum over several measured runs instead:
// MemStats also counts what other goroutines allocate meanwhile (the
// scavenger, post-GC cleanups), which only ever adds to a deterministic
// op's count.
//
// Each bound is 1.5 × the smaller of the count the former benchmark gate
// recorded and the largest count seen over 30 warmed runs (2-core x86-64),
// so no bound is looser than that gate's +50% and an improvement cannot
// quietly regress. A failure is allocation drift: find its cause, never
// raise the bound. The race runtime shifts the counts (by up to 20
// allocations per decode run), so -race builds leave this file out.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/mem"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// allocOpts is the one input every row measures.
var allocOpts = Options{Nodes: 16, Scale: 0.05, Seed: 1}

// allocRow is one measured operation and its bounds per run.
type allocRow struct {
	name          string
	allocs, bytes uint64
	op            func() error
}

// generateRuns is how many warmed runs a GenerateStream row measures.
const generateRuns = 5

// measureAllocs runs op once to warm up, then returns the smallest heap
// allocation count and byte total of the next runs measured runs.
func measureAllocs(op func() error, runs int) (allocs, bytes uint64, err error) {
	if err := op(); err != nil {
		return 0, 0, err
	}
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = op()
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, 0, err
		}
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes, nil
}

// TestAllocationBounds pins allocs and bytes per run of each hot path. The
// GenerateStream rows must also allocate exactly the same at every Repeat:
// Repeat lengthens the trace without growing any generator state.
func TestAllocationBounds(t *testing.T) {
	tr, gen, err := GenerateTrace("db2", allocOpts)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db2.tsm"
	if err := SaveTrace(path, tr, gen, allocOpts); err != nil {
		t.Fatal(err)
	}

	var rows []allocRow
	db2, _ := workload.ByName("db2")
	for _, repeat := range []float64{1, 2, 4} {
		cfg := workload.Config{Nodes: allocOpts.Nodes, Seed: allocOpts.Seed, Scale: allocOpts.Scale, Repeat: repeat}
		rows = append(rows, allocRow{fmt.Sprintf("GenerateStream/repeat=%g", repeat), 106, 81792, func() error {
			// Count the accesses, never buffer them.
			var accesses int
			return db2.New(cfg).Emit(func(mem.Access) error { accesses++; return nil })
		}})
	}
	for _, d := range []struct {
		name          string
		opt           stream.Options
		soa           bool
		allocs, bytes uint64
	}{
		{"serial", stream.Options{}, false, 34, 211872},
		{"workers1", stream.Options{Workers: 1}, false, 187, 1047456},
		{"workers4", stream.Options{Workers: 4}, false, 240, 1731060},
		{"soa1", stream.Options{Workers: 1}, true, 184, 1047180},
		{"soa4", stream.Options{Workers: 4}, true, 238, 1731060},
		{"mmap1", stream.Options{Workers: 1, Mmap: true}, true, 153, 622644},
		{"mmap4", stream.Options{Workers: 4, Mmap: true}, true, 213, 1435428},
	} {
		rows = append(rows, allocRow{"ParallelDecode/" + d.name, d.allocs, d.bytes, func() error {
			f, err := stream.OpenFile(path, d.opt)
			if err != nil {
				return err
			}
			if d.soa {
				return errors.Join(drainChunks(f), f.Close())
			}
			return errors.Join(drainEvents(f), f.Close())
		}})
	}
	for _, c := range []struct {
		consumers     int
		allocs, bytes uint64
	}{{4, 112, 250608}, {16, 187, 263544}, {64, 528, 328608}} {
		rows = append(rows, allocRow{fmt.Sprintf("Sweep/broadcast/ring/consumers=%d", c.consumers), c.allocs, c.bytes, func() error {
			sinks := make([]pipeline.Consumer, c.consumers)
			for i := range sinks {
				sinks[i] = pipeline.ConsumerFunc(drainEvents)
			}
			return pipeline.Run(stream.TraceSource(tr), sinks...)
		}})
	}
	// One paper-configuration TSE cell per consumer, lookaheads cycled.
	lookaheads := []int{1, 2, 4, 8, 16, 24}
	for _, c := range []struct {
		consumers     int
		allocs, bytes uint64
	}{{4, 5949, 8003784}, {16, 23352, 31738968}, {64, 92983, 126640416}} {
		cfgs := make([]tse.Config, c.consumers)
		for i := range cfgs {
			cfgs[i] = tseConfig(gen, allocOpts)
			cfgs[i].Lookahead = lookaheads[i%len(lookaheads)]
		}
		rows = append(rows, allocRow{fmt.Sprintf("Sweep/tse/ring/consumers=%d", c.consumers), c.allocs, c.bytes, func() error {
			_, err := analysis.SweepWith(pipeline.Config{}, cfgs, stream.TraceSource(tr))
			return err
		}})
	}

	generated := map[[2]uint64]bool{}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			runs := 1
			if strings.HasPrefix(row.name, "GenerateStream/") {
				runs = generateRuns
			}
			allocs, bytes, err := measureAllocs(row.op, runs)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d allocs, %d B (bounds %d allocs, %d B)", allocs, bytes, row.allocs, row.bytes)
			if allocs > row.allocs || bytes > row.bytes {
				t.Errorf("%d allocs and %d B per run, want at most %d allocs and %d B", allocs, bytes, row.allocs, row.bytes)
			}
			if strings.HasPrefix(row.name, "GenerateStream/") {
				generated[[2]uint64{allocs, bytes}] = true
			}
		})
	}
	if len(generated) > 1 {
		t.Errorf("GenerateStream allocations (allocs, B) differ across Repeat 1, 2 and 4: %v; generator state grows with trace length", generated)
	}
}

// drainEvents reads src to the end one event at a time.
func drainEvents(src EventSource) error {
	for {
		if _, err := src.Next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// drainChunks reads src to the end as struct-of-arrays chunks, the form the
// pipeline consumes.
func drainChunks(src stream.SoASource) error {
	for {
		if _, err := src.NextChunkSoA(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}
