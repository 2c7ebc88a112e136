package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"tsm"
	"tsm/internal/obs"
)

// tinyScenario shrinks a workload so the whole suite runs in seconds: every
// scale by 20×, and the figures op to two experiments (the workloads' own
// minimum sizes keep each experiment near a quarter second at any scale).
func tinyScenario(t *testing.T, name string, seed int64) scenario {
	t.Helper()
	sc, err := newScenario(name, seed, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := sc.(*figuresScenario); ok {
		f.ids = figureIDs[:2]
	}
	return sc
}

func loadTestSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsReportEveryMetric runs each workload for two ops, untraced
// and traced, and checks that every metric BENCHMARK.json names is emitted
// with its unit and nothing else, that no op failed its output check, and
// that the traced op's digest equals the untraced op's (a mismatch counts as
// a failed op).
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec := loadTestSpec(t)
	t.Chdir(t.TempDir())
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 1, seconds: 600, traced: traced, setups: 1, maxOps: 2}
			res, err := runWorkload(name, tinyScenario(t, name, 1), rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 3 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := e2e
			if traced {
				want = layers
				if res.BoundLayer == "" || len(res.Layers) != 2 {
					t.Errorf("%s: bound_layer %q over %d traced ops", name, res.BoundLayer, len(res.Layers))
				}
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", name, traced, metric, got, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for metric, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, metric, m.Value)
					}
				}
			}
		}
	}
}

// TestLastLineIsTheResult checks the output contract: the final line of
// standard output is one JSON object with exactly the four result keys.
func TestLastLineIsTheResult(t *testing.T) {
	t.Chdir(t.TempDir())
	res, err := runWorkload("generate", tinyScenario(t, "generate", 2), runConfig{seed: 2, seconds: 600, setups: 1, maxOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %s", got)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "replay", "-trace", "2"},
		{"-workload", "replay", "extra"},
		{"-compare", "onlyone"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and nothing", args, code, stdout.String())
		}
	}
	t.Chdir(t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 1 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples: no percentile has ten samples beyond it")
	}
	for _, c := range []struct {
		n          int
		value, pct float64
	}{
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		{100, 90, 90},
	} {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of %d samples = %g at p%g (ok=%v), want %g at p%g", c.n, v, pct, ok, c.value, c.pct)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %g %g median %g", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles %g %g", q1, q3)
	}
}

func checkValues(t *testing.T, lr layerReport, want map[string]float64) {
	t.Helper()
	for k, v := range want {
		if lr.Values[k] != v {
			t.Errorf("%s = %g, want %g", k, lr.Values[k], v)
		}
	}
}

// TestAccountPipelineOp pins the accounting of a synthetic facade op, with
// the spans, counters and manifest stages the engine records: self time,
// unaccounted time, decode wait, consumer busy time and the bound verdict.
func TestAccountPipelineOp(t *testing.T) {
	tr := obs.NewTracer()
	tr.Record(obs.Span{Name: "op", Cat: benchCat, Dur: 1000}) // an earlier op
	ot := newOpTrace(tr)
	rec := func(name, cat string, lane int, start, dur int64) {
		tr.Record(obs.Span{Name: name, Cat: cat, Lane: lane, Start: time.Duration(start), Dur: time.Duration(dur)})
	}
	ot.stages = []tsm.ManifestStage{{Name: "open", WallNs: 10}, {Name: "replay", WallNs: 80}, {Name: "hash", WallNs: 5}}
	ot.reg.Counter("pipeline.wall_ns").Add(70)
	rec("chunk", "decode", 0, 20, 4)
	rec("chunk", "decode", 1000, 20, 50) // a decode worker's chunk
	rec("chunk", "decode", 0, 40, 6)
	rec("decode", "pipeline", 0, 20, 70)
	rec("LA=8", "consumer", 1, 20, 70)
	rec("timing-tse", "consumer", 2, 20, 60)
	rec("op", benchCat, 0, 0, 100)
	ot.reg.Counter("pipeline.consumer.LA=8.stall_ns").Add(30)
	ot.reg.Counter("pipeline.consumer.timing-tse.stall_ns").Add(5)

	lr, err := ot.account()
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, lr, map[string]float64{
		"op_ns":                           100,
		"stream.open_ns":                  10,
		"tsm.run_ns":                      80,
		"tsm.manifest_ns":                 5,
		"pipeline.run_ns":                 70,
		"tsm.self_ns":                     80 - 70,
		"tse.busy_ns":                     40,
		"timing.tse.busy_ns":              55,
		"pipeline.consumer.LA_8.stall_ns": 30,
		"pipeline.consumer_stall_min_ns":  5,
		"stream.decode_wait_ns":           10,
		"stream.decode_busy_ns":           10,
		"unaccounted_ns":                  100 - 10 - 80 - 5,
		"bound.busy_ns":                   55,
	})
	if lr.BoundLayer != "timing.tse (timing-tse)" {
		t.Errorf("bound layer %q", lr.BoundLayer)
	}

	// Decode workers' busy counters replace the producer's wait as decode
	// busy time, and every consumer stalling for more than half the run
	// makes decode the bound.
	ot.reg.Counter("stream.decode.worker.0.busy_ns").Add(20)
	ot.reg.Counter("stream.decode.worker.1.busy_ns").Add(25)
	ot.reg.Counter("pipeline.consumer.LA=8.stall_ns").Add(10)
	ot.reg.Counter("pipeline.consumer.timing-tse.stall_ns").Add(40)
	if lr, _ = ot.account(); lr.BoundLayer != "decode" || lr.Values["stream.decode_busy_ns"] != 45 {
		t.Errorf("all consumers stalled: bound layer %q, decode busy %g; want decode, 45",
			lr.BoundLayer, lr.Values["stream.decode_busy_ns"])
	}
}

// TestAccountHandBuiltOp pins the accounting of an op traced span by span:
// lane-0 spans make up the op, spans on other lanes run inside them, and the
// bound is the inner layer with the most time.
func TestAccountHandBuiltOp(t *testing.T) {
	tr := obs.NewTracer()
	ot := newOpTrace(tr)
	rec := func(name string, lane int, start, dur int64) {
		tr.Record(obs.Span{Name: name, Cat: benchCat, Lane: lane, Start: time.Duration(start), Dur: time.Duration(dur)})
	}
	rec("tsm.setup", 0, 0, 10)
	rec("experiments.fig6", 1, 10, 50)
	rec("experiments.fig7", 2, 10, 60)
	rec("experiments.run", 0, 10, 70)
	rec("tsm.report", 0, 85, 3)
	rec("op", 0, 0, 90)
	lr, err := ot.account()
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, lr, map[string]float64{
		"op_ns":               90,
		"experiments.fig6_ns": 50,
		"experiments.run_ns":  70,
		"tsm.self_ns":         13,
		"unaccounted_ns":      90 - 10 - 70 - 3,
		"bound.busy_ns":       60,
	})
	if lr.BoundLayer != "experiments.fig7" {
		t.Errorf("bound layer %q", lr.BoundLayer)
	}

	// With no inner spans, the bound is the lane-0 layer with the most time.
	ot = newOpTrace(tr)
	rec("workload.emit", 0, 100, 20)
	rec("coherence.classify", 0, 120, 50)
	rec("workload.emit", 0, 170, 40)
	rec("op", 0, 100, 110)
	if lr, _ = ot.account(); lr.BoundLayer != "workload.emit" || lr.Values["bound.busy_ns"] != 60 {
		t.Errorf("bound layer %q at %g ns, want workload.emit at 60", lr.BoundLayer, lr.Values["bound.busy_ns"])
	}
}

// TestPeakRSSKinds checks that -compare refuses to judge peak_rss_mb between
// a set whose runs reset the high-water mark before each op and one whose
// runs could not.
func TestPeakRSSKinds(t *testing.T) {
	spec := loadTestSpec(t)
	set := func(reset bool) map[string][]runResult {
		var runs []runResult
		for i := 0; i < 5; i++ {
			r := runResult{Workload: "replay", Seed: int64(i), Metrics: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				r.Metrics[m.Name] = metric{100, m.Unit}
			}
			r.Provenance.PeakRSSReset = reset
			runs = append(runs, r)
		}
		return map[string][]runResult{"replay": runs}
	}
	var out, errOut bytes.Buffer
	if code := compareSets(spec, set(true), set(true), "", &out, &errOut); code != 0 || strings.Contains(out.String(), "incomparable") {
		t.Errorf("same kind: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(spec, set(true), set(false), "", &out, &errOut); code != 1 || !strings.Contains(out.String(), "incomparable") {
		t.Errorf("reset against lifetime peaks: exit %d\n%s", code, out.String())
	}
	mixed := set(true)
	mixed["replay"][0].Provenance.PeakRSSReset = false
	if samePeakKind(mixed["replay"], mixed["replay"]) {
		t.Error("a set of mixed kinds compared as one kind")
	}
}

// node is a pointer-rich heap object, so a collection has marking to do.
type node struct {
	next *node
	pad  [48]byte
}

var nodeSink *node

// TestCalibrationIgnoresOpGarbage checks that the calibration sample taken
// after an op that leaves much garbage reads the same host speed as one
// taken after an op that leaves none, so that the heavier op is not scaled
// down further. Without the collection that starts each sample, the
// collector marks and sweeps the op's garbage while the kernels run, and the
// cache-bound walk kernel reads 13–27% slower after such an op.
func TestCalibrationIgnoresOpGarbage(t *testing.T) {
	ballast := make([]*node, 1<<19) // a 32 MiB live heap to mark
	for i := range ballast {
		ballast[i] = &node{}
	}
	garbage := func() {
		var keep *node
		for i := 0; i < 1<<21; i++ {
			n := &node{next: keep}
			if i%64 == 0 {
				keep = n
			}
		}
		nodeSink = keep
	}
	var cal calibrator
	for i := 0; i < 16; i++ {
		cal.sample() // after an op that left no garbage
		garbage()
		cal.sample()
	}
	runtime.KeepAlive(ballast)
	var ratios []float64
	for i := 0; i+1 < len(cal.Walk); i += 2 {
		ratios = append(ratios, cal.Walk[i+1]/cal.Walk[i])
	}
	r := median(ratios)
	t.Logf("walk kernel after garbage / after none: median %.3f of %.3f", r, ratios)
	if r > 1.10 {
		t.Errorf("walk kernel reads %.3f× slower after an op that left garbage", r)
	}
}

func TestVerdicts(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{shift(a, 1.05), true, "agree"},
		{shift(a, 1.15), true, "regressed"},
		{shift(a, 0.85), false, "regressed"},
		{shift(a, 0.80), true, "agree"},
		{[]float64{50, 150, 100, 60, 140}, true, "unresolved"},
		{nil, true, "unresolved"},
	} {
		if got := verdict(a, c.b, 0.10, c.lower); got != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.b, c.lower, got, c.want)
		}
	}
	// A wide spread is still resolved when every run of b beats every run
	// of a.
	wide := []float64{100, 130, 70, 100, 120}
	if got := verdict(wide, shift(wide, 0.5), 0.10, true); got != "agree" {
		t.Errorf("uniformly better wide set: %s", got)
	}

	if _, _, met := pairWins(a, shift(a, 0.9), true); !met {
		t.Error("a 10% gain in every pair should meet the claim")
	}
	b := shift(a, 0.9)
	b[0], b[1] = 200, 200
	if wins, pairs, met := pairWins(a, b, true); met || wins != 8 || pairs != 10 {
		t.Errorf("8 of 10 wins: wins=%d pairs=%d met=%v", wins, pairs, met)
	}
	if _, _, met := pairWins(a, shift(a, 0.999), true); met {
		t.Error("a gain inside a's quartile spread should not meet the claim")
	}
}
