// Command bench is the repository benchmark. It runs one workload (or all
// four) as a closed loop — one process, one client, the next op issued when
// the previous one returns — for a fixed wall-clock time, checks every op's
// output against a reference computed once per run through an independent
// path, and prints every end-to-end metric with its unit. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
//
// Run it from the repository root through bench/run.sh, which builds it
// from source:
//
//	bash bench/run.sh -workload replay -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 2
//	bash bench/run.sh -workload sweep -trace 1      # per-layer metrics
//	bash bench/run.sh -compare DIR_A DIR_B [-claim op_p50_ms@sweep]
//
// See README.md for the workloads, the metrics and what moves them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tsm/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// maxOps caps the measured ops (0: bounded by seconds alone); tests set
	// it.
	maxOps int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = fs.Int64("seed", 1, "corpus seed (1 is the development seed, 2 the held-out one)")
		seconds = fs.Float64("seconds", 20, "wall-clock length of the measured phase")
		traced  = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
		out     = fs.String("out", filepath.Join(".bench_build", "out"), "directory for run, layer and span JSON")
		compare = fs.Bool("compare", false, "compare two directories of run JSON: -compare A B")
		claim   = fs.String("claim", "", "with -compare: test metric@workload for a gain by the pair-win rule")
		spec    = fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		// Allow flags after the two directories too.
		rest := fs.Args()
		if len(rest) > 2 {
			if err := fs.Parse(rest[2:]); err != nil {
				return 2
			}
			rest = append(rest[:2:2], fs.Args()...)
		}
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "bench: usage: bench -compare [-claim metric@workload] DIR_A DIR_B")
			return 2
		}
		return runCompare(*spec, rest[0], rest[1], *claim, stdout, stderr)
	}
	if fs.NArg() > 0 || *name == "" || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out, setups: 3}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, n := range names {
		sc, err := newScenario(n, rc.seed, 1)
		var res *runResult
		if err == nil {
			res, err = runWorkload(n, sc, rc)
		}
		if err == nil {
			err = res.write(rc.out)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		res.print(stdout)
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	OutputSHA string            `json:"output_sha256"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds values printed but not gated.
	Extra map[string]float64 `json:"extra"`
	OpMs  []float64          `json:"op_ms"`
	// OpCPUMs is each op's process CPU time.
	OpCPUMs []float64 `json:"op_cpu_ms"`
	// OpRSSMB is each op's peak resident set.
	OpRSSMB []float64 `json:"op_rss_mb"`
	// Calibration holds the kernel samples: one after each set-up
	// repetition, then one after each measured op.
	Calibration calibrator `json:"calibration"`
	SetupS      []float64  `json:"setup_s_samples"`
	// Layers holds each traced op's layer values (traced runs only).
	Layers     []layerReport `json:"layers,omitempty"`
	BoundLayer string        `json:"bound_layer,omitempty"`
	Provenance provenance    `json:"provenance"`
	// Counters and Gauges give cmd/obsdiff a snapshot-shaped view of the
	// run, every gauge oriented so that higher is worse.
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`

	tracer *obs.Tracer
	stamp  string
}

// fail records one failed op.
func (r *runResult) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// outcome is one op's output digest, or its error.
type outcome struct {
	digest string
	err    error
}

// observe digests the output of the op that just returned opErr.
func observe(sc scenario, opErr error) outcome {
	if opErr != nil {
		return outcome{err: opErr}
	}
	d, err := sc.digest()
	return outcome{d, err}
}

// check records one op's outcome against the reference digest.
func (r *runResult) check(o outcome, ref string) {
	r.Attempted++
	switch {
	case o.err != nil:
		r.fail(o.err)
	case o.digest != ref:
		r.fail(fmt.Errorf("output %s differs from reference %s", o.digest, ref))
	}
	if o.err == nil {
		r.OutputSHA = o.digest
	}
}

// runWorkload sets up, checks and measures one workload.
func runWorkload(name string, sc scenario, rc runConfig) (*runResult, error) {
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &runResult{
		Workload: name, Seed: rc.seed, Traced: rc.traced,
		Metrics: map[string]metric{}, Extra: map[string]float64{},
		stamp: time.Now().UTC().Format("20060102T150405.000000000"),
	}

	// Set-up: generate the corpus and run one warm-up op, several times over;
	// setup_s is the median repetition. Calibration runs after every set-up
	// repetition and between measured ops (see calibrate.go).
	var warm []outcome
	var check time.Duration
	var cal calibrator
	for i := 0; i < rc.setups; i++ {
		t0 := time.Now()
		if err := sc.prepare(dir); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		_, err := sc.op()
		t1 := time.Now()
		res.SetupS = append(res.SetupS, t1.Sub(t0).Seconds())
		warm = append(warm, observe(sc, err))
		check += time.Since(t1)
		cal.sample()
	}

	// The reference check runs once, outside set-up time; the warm-up ops
	// are checked against it like every other op.
	t0 := time.Now()
	ref, err := sc.reference()
	if err != nil {
		res.fail(fmt.Errorf("reference: %w", err))
	}
	for _, o := range warm {
		res.check(o, ref)
	}
	check += time.Since(t0)
	res.Provenance = newProvenance(rc, sc)

	// The measured phase. Each op's rate, CPU per event and peak resident
	// set are taken per op; the run reports their medians.
	releaseHeap()
	var (
		events, opCPU     float64
		opWall            time.Duration
		rate, cpuPerEvent []float64
		// overhead is each traced op's time over the untraced op's before it.
		overhead []float64
	)
	if rc.traced {
		res.tracer = obs.NewTracer()
	}
	res.Provenance.PeakRSSReset = true
	start := time.Now()
	for i := 0; ; i++ {
		if (rc.maxOps > 0 && i >= rc.maxOps) || (i > 0 && time.Since(start).Seconds() >= rc.seconds) {
			break
		}
		if resetPeakRSS() != nil {
			res.Provenance.PeakRSSReset = false
		}
		c0, t0 := cpuTime(), time.Now()
		n, err := sc.op()
		d, c := time.Since(t0), cpuTime()-c0
		peak, perr := peakRSS()
		if perr != nil {
			return nil, perr
		}
		res.OpMs = append(res.OpMs, d.Seconds()*1e3)
		res.OpCPUMs = append(res.OpCPUMs, c.Seconds()*1e3)
		rate = append(rate, float64(n)/d.Seconds()/1e6)
		cpuPerEvent = append(cpuPerEvent, float64(c.Nanoseconds())/float64(n))
		res.OpRSSMB = append(res.OpRSSMB, float64(peak)/1e6)
		events, opWall, opCPU = events+float64(n), opWall+d, opCPU+c.Seconds()
		t1 := time.Now()
		res.check(observe(sc, err), ref)
		check += time.Since(t1)
		cal.sample()

		if rc.traced && i < maxTracedOps {
			ms, err := res.tracedOp(sc, i, ref)
			if err != nil {
				res.fail(err)
			} else {
				overhead = append(overhead, ms/res.OpMs[i])
			}
		}
	}

	ops := len(res.OpMs)
	res.Correct = res.Failed == 0
	res.Extra["ops"] = float64(ops)
	res.Extra["check_s"] = check.Seconds()
	res.Extra["cpu_util"] = opCPU / opWall.Seconds()
	slow := cal.slowdowns()
	res.Extra["host_slowdown"] = median(slow)
	res.Calibration = cal
	if v, pct, ok := tail(res.OpMs); ok {
		res.Extra["op_tail_ms"], res.Extra["op_tail_pct"] = v, pct
	}
	res.Provenance.Ops = ops
	res.Counters = map[string]float64{"ops": float64(ops), "failed": float64(res.Failed), "events": events}
	if rc.traced {
		res.layerMetrics(median(overhead))
	} else {
		// Each set-up repetition and op is scaled to the reference host's
		// speed by the calibration sample taken right after it; the raw
		// medians stay in Extra.
		setupSlow, opSlow := slow[:len(res.SetupS)], slow[len(res.SetupS):]
		res.Metrics = map[string]metric{
			"mevents_per_s":    {median(scaled(rate, invert(opSlow))), "Mevents/s"},
			"op_p50_ms":        {median(scaled(res.OpMs, opSlow)), "ms"},
			"cpu_ns_per_event": {median(scaled(cpuPerEvent, opSlow)), "ns"},
			"peak_rss_mb":      {median(res.OpRSSMB), "MB"},
			"setup_s":          {median(scaled(res.SetupS, setupSlow)), "s"},
		}
		res.Extra["raw_mevents_per_s"] = median(rate)
		res.Extra["raw_op_p50_ms"] = median(res.OpMs)
		res.Extra["raw_cpu_ns_per_event"] = median(cpuPerEvent)
		res.Extra["raw_setup_s"] = median(res.SetupS)
		res.Gauges = map[string]float64{
			"op_p50_ms":        res.Metrics["op_p50_ms"].Value,
			"cpu_ns_per_event": res.Metrics["cpu_ns_per_event"].Value,
			"peak_rss_mb":      res.Metrics["peak_rss_mb"].Value,
			"setup_s":          res.Metrics["setup_s"].Value,
			"s_per_mevent":     1 / res.Metrics["mevents_per_s"].Value,
		}
	}
	// Only failed ops leave a value undefined (no events, no traced op);
	// JSON cannot carry NaN or Inf, so such values read 0 in a run that
	// already reports correct=false.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	for _, kv := range []map[string]float64{res.Extra, res.Gauges} {
		for name, v := range kv {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				kv[name] = 0
			}
		}
	}
	return res, nil
}

// tracedOp runs one traced op, checks its output against the reference
// like any other op's, and accounts its layers. It returns the op's wall
// time in ms.
func (r *runResult) tracedOp(sc scenario, id int, ref string) (float64, error) {
	t := newOpTrace(r.tracer)
	sp := t.begin("op", 0).Arg("op", id)
	err := sc.traced(t)
	sp.End()
	t.stages = t.man.Snapshot().Stages
	r.Attempted++
	if o := observe(sc, err); o.err != nil {
		return 0, fmt.Errorf("traced op: %w", o.err)
	} else if o.digest != ref {
		return 0, fmt.Errorf("traced output %s differs from reference %s", o.digest, ref)
	}
	if p, ok := sc.(prober); ok {
		if err := p.probe(t); err != nil {
			return 0, fmt.Errorf("broadcast probe: %w", err)
		}
	}
	lr, err := t.account()
	if err != nil {
		return 0, err
	}
	r.Layers = append(r.Layers, lr)
	return lr.Values["op_ns"] / 1e6, nil
}

// layerMetrics fills the per-layer metrics: each the median over the traced
// ops, plus the tracing overhead, the median ratio of a traced op's time to
// the untraced op's right before it.
func (r *runResult) layerMetrics(overhead float64) {
	per := map[string][]float64{}
	units := map[string]string{}
	verdicts := map[string]int{}
	for _, lr := range r.Layers {
		for name, m := range layerMetrics(lr.Values) {
			per[name] = append(per[name], m.Value)
			units[name] = m.Unit
		}
		verdicts[lr.BoundLayer]++
	}
	for name, vals := range per {
		r.Metrics[name] = metric{median(vals), units[name]}
	}
	r.Metrics["trace_overhead_frac"] = metric{overhead - 1, "frac"}
	for v, n := range verdicts {
		if n > verdicts[r.BoundLayer] || (n == verdicts[r.BoundLayer] && v < r.BoundLayer) {
			r.BoundLayer = v
		}
	}
}

// write saves the run JSON (and, for a traced run, the chrome trace of its
// spans) under dir.
func (r *runResult) write(dir string) error {
	kind := "run"
	if r.Traced {
		kind = "layers"
		if err := r.tracer.WriteFile(filepath.Join(dir, r.fileName("spans"))); err != nil {
			return err
		}
	}
	return obs.WriteFileAtomic(filepath.Join(dir, r.fileName(kind)), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(r)
	})
}

// fileName names a run's file so that runs of one workload sort by start
// time.
func (r *runResult) fileName(kind string) string {
	return fmt.Sprintf("%s-%s-%s-seed%d.json", kind, r.Workload, r.stamp, r.Seed)
}

// print writes the human-readable report, then the one-line JSON result.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d ops=%d attempted=%d failed=%d output_sha256=%s\n",
		r.Workload, r.Seed, len(r.OpMs), r.Attempted, r.Failed, r.OutputSHA)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	if r.Traced {
		fmt.Fprintf(w, "  bound_layer %s\n", r.BoundLayer)
	} else if v, ok := r.Extra["op_tail_ms"]; ok {
		fmt.Fprintf(w, "  op_tail_ms %.3f (p%.1f of %d ops)\n", v, r.Extra["op_tail_pct"], len(r.OpMs))
	} else {
		fmt.Fprintf(w, "  op_tail_ms n/a (%d ops; a tail needs more than 10)\n", len(r.OpMs))
	}
	fmt.Fprintf(w, "  cpu_util %.3f  check_s %.3f\n", r.Extra["cpu_util"], r.Extra["check_s"])
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// provenance records what produced a run.
type provenance struct {
	Commit        string       `json:"commit"`
	GoVersion     string       `json:"go_version"`
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	NumCPU        int          `json:"nproc"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	DecodeWorkers int          `json:"decode_workers"`
	Seed          int64        `json:"seed"`
	Seconds       float64      `json:"seconds"`
	Setups        int          `json:"setups"`
	Ops           int          `json:"ops"`
	Corpus        []corpusFile `json:"corpus"`
	// PeakRSSReset is whether the high-water mark was reset before every
	// measured op; if not, peak_rss_mb is the process-lifetime peak.
	PeakRSSReset bool `json:"peak_rss_reset"`
}

type corpusFile struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

func newProvenance(rc runConfig, sc scenario) provenance {
	p := provenance{
		Commit: gitCommit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), DecodeWorkers: decodeWorkers(),
		Seed: rc.seed, Seconds: rc.seconds, Setups: rc.setups,
	}
	for _, path := range sc.corpus() {
		cf := corpusFile{Name: filepath.Base(path)}
		if st, err := os.Stat(path); err == nil {
			cf.Bytes = st.Size()
		}
		cf.SHA256, _ = hashFiles(path) // an unreadable file leaves the hash empty
		p.Corpus = append(p.Corpus, cf)
	}
	return p
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// decodeWorkers is the sweep's parallel decode width: two, or one per core
// on a smaller machine.
func decodeWorkers() int { return min(2, runtime.NumCPU()) }
