package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsm"
	"tsm/internal/obs"
	"tsm/internal/stream"
)

// writeTestTrace generates a small trace file through the facade's streamed
// pipeline (the exact path tracegen uses) for the replay tests.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.tsm")
	if err := generateSmallTrace(path); err != nil {
		t.Fatalf("generating test trace: %v", err)
	}
	return path
}

// generateSmallTrace streams one tiny db2 trace into path.
func generateSmallTrace(path string) (err error) {
	return generateTraceScaled(path, 0.05)
}

// generateTraceScaled streams one db2 trace at the given scale into path.
func generateTraceScaled(path string, scale float64) (err error) {
	opts := tsm.Options{Nodes: 4, Scale: scale, Seed: 9}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = stream.CloseMerge(f, err) }()
	w, err := stream.NewWriter(f, stream.Meta{Workload: "db2", Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed})
	if err != nil {
		return err
	}
	if _, _, err := tsm.StreamTrace("db2", opts, w); err != nil {
		return err
	}
	return w.Close()
}

// TestRunMissingInput: a missing -i file must exit non-zero with a clear
// error on stderr, not panic or print an empty report.
func TestRunMissingInput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", filepath.Join(t.TempDir(), "nope.tsm")}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("missing input exited 0\nstdout:\n%s", &stdout)
	}
	msg := stderr.String()
	if !strings.Contains(msg, "tsesim:") || !strings.Contains(msg, "nope.tsm") {
		t.Fatalf("stderr lacks a clear error naming the file:\n%s", msg)
	}
	if strings.Contains(stdout.String(), "coverage") {
		t.Fatalf("stdout contains a report despite the failure:\n%s", &stdout)
	}
}

// TestRunUnwritableMetrics: an unwritable -metrics path must fail fast,
// before the replay runs.
func TestRunUnwritableMetrics(t *testing.T) {
	path := writeTestTrace(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path, "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("unwritable -metrics exited 0\nstdout:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "not writable") {
		t.Fatalf("stderr lacks the writability error:\n%s", stderr.String())
	}
}

// TestRunNodeLimit: -nodes outside [1, 64] is a usage error, not a panic
// in the coherence engine.
func TestRunNodeLimit(t *testing.T) {
	for _, n := range []string{"0", "-1", "65", "100"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", "fig6", "-nodes", n, "-scale", "0.05", "-quiet"}, &stdout, &stderr); code != 2 {
			t.Errorf("-nodes %s exited %d, want 2\nstderr:\n%s", n, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "-nodes") {
			t.Errorf("-nodes %s: stderr lacks the flag error:\n%s", n, &stderr)
		}
	}
}

// TestRunScaleLimit: -scale must be finite and non-negative. A negative,
// NaN or infinite scale exits 2 before any work instead of silently running
// at the default (or a degenerate) footprint; 0 selects the default of 1.
func TestRunScaleLimit(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	for _, s := range []string{"-1", "NaN", "Inf", "-Inf"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-experiment", "fig6", "-workloads", "em3d", "-scale", s, "-metrics", metrics, "-quiet"}, &stdout, &stderr); code != 2 {
			t.Errorf("-scale %s exited %d, want 2\nstderr:\n%s", s, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "tsesim: -scale") {
			t.Errorf("-scale %s: stderr lacks the flag error:\n%s", s, &stderr)
		}
		if stdout.Len() > 0 {
			t.Errorf("-scale %s: printed a report:\n%s", s, &stdout)
		}
		if _, err := os.Stat(metrics); !os.IsNotExist(err) {
			t.Errorf("-scale %s: metrics file exists after the usage error (stat err %v)", s, err)
		}
	}
	// Table 2 reports the trace length, so it shows which scale ran.
	var zero, one, stderr bytes.Buffer
	if code := run([]string{"-experiment", "table2", "-workloads", "em3d", "-scale", "0", "-quiet"}, &zero, &stderr); code != 0 {
		t.Fatalf("-scale 0 exited %d, want 0\nstderr:\n%s", code, &stderr)
	}
	if code := run([]string{"-experiment", "table2", "-workloads", "em3d", "-quiet"}, &one, &stderr); code != 0 {
		t.Fatalf("default -scale exited %d, want 0\nstderr:\n%s", code, &stderr)
	}
	if zero.String() != one.String() {
		t.Errorf("-scale 0 output differs from the default scale:\n%s\nvs\n%s", &zero, &one)
	}
}

// TestRunCorruptNodeHeader: a trace whose header claims more nodes than the
// directory supports fails at open on the in-memory and streamed paths —
// exit 1 with a corrupt-trace error, never a panic.
func TestRunCorruptNodeHeader(t *testing.T) {
	path := writeTestTrace(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Header: magic (4), version (1), name length (1), "db2" (3), nodes.
	const nodesAt = 4 + 1 + 1 + len("db2")
	if data[nodesAt] != 4 {
		t.Fatalf("node count byte = %d, want 4", data[nodesAt])
	}
	data[nodesAt] = 100
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{{"-inmem"}, {"-inmem", "-compare"}, nil, {"-compare", "-decode-workers", "2"}} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-i", path, "-quiet"}, extra...), &stdout, &stderr); code != 1 {
			t.Errorf("%v exited %d, want 1\nstderr:\n%s", extra, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "corrupt trace: node count 100") {
			t.Errorf("%v: stderr lacks the corrupt-header error:\n%s", extra, &stderr)
		}
	}
}

// TestRunBadFlagCombo: contradictory flags exit 2 (usage error).
func TestRunBadFlagCombo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-i", "x.tsm", "-sweep", "lookahead", "-inmem"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-sweep -inmem exited %d, want 2", code)
	}
	if code := run([]string{"-i", "x.tsm", "-sweep", "lookahead", "-compare"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-sweep -compare exited %d, want 2", code)
	}
}

// TestRunObservedReplay drives the acceptance-criteria command end to end:
// replay with -sweep, -metrics, -trace and -progress attached, then check
// both artifacts are valid JSON with the expected content.
func TestRunObservedReplay(t *testing.T) {
	path := writeTestTrace(t)
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	traceOut := filepath.Join(dir, "t.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path, "-sweep", "lookahead", "-metrics", metrics, "-trace", traceOut, "-progress"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("observed sweep exited %d\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "LA=") {
		t.Fatalf("sweep output lacks cells:\n%s", &stdout)
	}
	// Progress output (the meter's final line) goes to stderr only.
	if !strings.Contains(stderr.String(), "events") {
		t.Fatalf("stderr lacks the progress summary:\n%s", &stderr)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, raw)
	}
	decoded := snap.Counters["pipeline.events_decoded"]
	if decoded == 0 {
		t.Fatalf("metrics lack decode progress:\n%s", raw)
	}
	if snap.Gauges["pipeline.ring.occupancy_max"] <= 0 {
		t.Fatalf("metrics lack ring occupancy:\n%s", raw)
	}
	// Per-cell consumer counters, labelled with the sweep's cell labels.
	if got := snap.Counters["pipeline.consumer.LA=8.events"]; got != decoded {
		t.Fatalf("per-cell consumer counter = %d, want %d:\n%s", got, decoded, raw)
	}
	if _, ok := snap.Histograms["pipeline.consumer_wait_ns"]; !ok {
		t.Fatalf("metrics lack the consumer wait histogram:\n%s", raw)
	}

	rawTrace, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rawTrace, &chrome); err != nil {
		t.Fatalf("trace file is not valid chrome JSON: %v\n%s", err, rawTrace)
	}
	var sawDecode, sawConsumer bool
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" && e.Name == "decode" {
			sawDecode = true
		}
		if e.Ph == "X" && strings.HasPrefix(e.Name, "LA=") {
			sawConsumer = true
		}
	}
	if !sawDecode || !sawConsumer {
		t.Fatalf("trace lacks decode/consumer spans (decode=%v consumer=%v):\n%s", sawDecode, sawConsumer, rawTrace)
	}
}

// TestRunExperimentMetrics: the experiment batch path reports per-cell
// consumer throughput through -metrics, labelled "<workload>/cell<i>".
func TestRunExperimentMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-experiment", "fig8", "-workloads", "db2",
		"-scale", "0.05", "-nodes", "4", "-quiet", "-metrics", metrics}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("experiment run exited %d\nstderr:\n%s", code, &stderr)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, raw)
	}
	if got := snap.Counters["pipeline.consumer.db2/cell0.events"]; got == 0 {
		t.Fatalf("metrics lack per-cell consumer counters:\n%s", raw)
	}
	if snap.Counters["pipeline.events_decoded"] == 0 {
		t.Fatalf("metrics lack decode counters:\n%s", raw)
	}
}

// TestRunObservedOutputsIdentical: attaching instrumentation must not change
// the report on stdout byte for byte.
func TestRunObservedOutputsIdentical(t *testing.T) {
	path := writeTestTrace(t)
	dir := t.TempDir()

	var plain, observed, stderr bytes.Buffer
	if code := run([]string{"-i", path, "-quiet"}, &plain, &stderr); code != 0 {
		t.Fatalf("plain replay exited %d\nstderr:\n%s", code, &stderr)
	}
	args := []string{"-i", path, "-quiet",
		"-metrics", filepath.Join(dir, "m.json"),
		"-trace", filepath.Join(dir, "t.json"),
		"-series", filepath.Join(dir, "s.json"),
		"-manifest", filepath.Join(dir, "run.json"),
		"-progress"}
	if code := run(args, &observed, &stderr); code != 0 {
		t.Fatalf("observed replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if plain.String() != observed.String() {
		t.Fatalf("instrumentation changed stdout:\nplain:\n%s\nobserved:\n%s", &plain, &observed)
	}
}

// TestRunSeriesAndManifest drives -series and -manifest end to end on a
// trace large enough for double-digit epoch counts: the series carries ≥10
// samples per consumer, the final "timing-tse" sample reproduces the report's
// coverage byte for byte (same %.1f%% rendering), and the manifest records
// the trace's provenance, the timed stages and the final metrics snapshot.
func TestRunSeriesAndManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db2.tsm")
	if err := generateTraceScaled(path, 0.1); err != nil {
		t.Fatalf("generating test trace: %v", err)
	}
	dir := t.TempDir()
	seriesOut := filepath.Join(dir, "s.json")
	manifestOut := filepath.Join(dir, "run.json")
	metricsOut := filepath.Join(dir, "m.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-i", path, "-quiet", "-series", seriesOut, "-manifest", manifestOut, "-metrics", metricsOut}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("observed replay exited %d\nstderr:\n%s", code, &stderr)
	}

	rawSeries, err := os.ReadFile(seriesOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.SeriesSnapshot
	if err := json.Unmarshal(rawSeries, &snap); err != nil {
		t.Fatalf("series file is not valid JSON: %v\n%s", err, rawSeries)
	}
	if snap.Interval == 0 {
		t.Fatalf("series interval not auto-sized:\n%s", rawSeries)
	}
	for _, name := range []string{"timing-base", "timing-tse"} {
		if n := len(snap.Series[name].Points); n < 10 {
			t.Fatalf("consumer %q has %d samples, want >= 10:\n%s", name, n, rawSeries)
		}
	}

	rawManifest, err := os.ReadFile(manifestOut)
	if err != nil {
		t.Fatal(err)
	}
	var m tsm.Manifest
	if err := json.Unmarshal(rawManifest, &m); err != nil {
		t.Fatalf("manifest file is not valid JSON: %v\n%s", err, rawManifest)
	}
	if m.Tool != "tsm" || m.Version != tsm.ToolVersion {
		t.Fatalf("manifest tool/version = %q/%q:\n%s", m.Tool, m.Version, rawManifest)
	}
	if len(m.Trace.SHA256) != 64 || m.Trace.Events == 0 || m.Trace.Workload != "db2" {
		t.Fatalf("manifest trace provenance incomplete:\n%s", rawManifest)
	}
	if m.Replay.Op != "replay-tse" {
		t.Fatalf("manifest op = %q:\n%s", m.Replay.Op, rawManifest)
	}
	if m.Metrics == nil || m.Metrics.Counters["pipeline.events_decoded"] != m.Trace.Events {
		t.Fatalf("manifest metrics snapshot missing or wrong:\n%s", rawManifest)
	}

	// The final epoch sample IS the report: its cumulative coverage renders
	// to the same byte sequence the stdout report printed.
	pts := snap.Series["timing-tse"].Points
	last := pts[len(pts)-1]
	if last.Seq != m.Trace.Events-1 {
		t.Fatalf("final sample at seq %d, want last event %d", last.Seq, m.Trace.Events-1)
	}
	rendered := fmt.Sprintf("coverage=%.1f%%", 100*last.Values["coverage"])
	if !strings.Contains(stdout.String(), rendered) {
		t.Fatalf("stdout report does not contain the final sample's coverage %q:\n%s", rendered, &stdout)
	}
	if got := fmt.Sprintf("consumptions=%d", int64(last.Values["consumptions"])); !strings.Contains(stdout.String(), got) {
		t.Fatalf("stdout report does not contain the final sample's %q:\n%s", got, &stdout)
	}
}

// TestRunSeriesFlagCombos pins the CLI contract of -series/-manifest:
// replay-only (-i required) and fused-path-only (no -inmem).
func TestRunSeriesFlagCombos(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cases := [][]string{
		{"-series", "s.json"},   // no -i
		{"-manifest", "m.json"}, // no -i
		{"-i", "x.tsm", "-series", "s.json", "-inmem"},
		{"-i", "x.tsm", "-manifest", "m.json", "-inmem"},
	}
	for _, args := range cases {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v exited %d, want 2\nstderr:\n%s", args, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "tsesim:") {
			t.Fatalf("%v: stderr lacks a usage error:\n%s", args, &stderr)
		}
	}
	// An unwritable -series path fails fast, before the replay runs.
	path := writeTestTrace(t)
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-i", path, "-series", filepath.Join(t.TempDir(), "no", "dir", "s.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable -series exited %d, want 1\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "not writable") {
		t.Fatalf("stderr lacks the writability error:\n%s", &stderr)
	}
}

// TestRunDecodeWorkerFlags pins the CLI contract of the v3-index flags:
// replay-only (-i required), incompatible with the in-memory oracle, and a
// -to at or below -from is a usage error.
func TestRunDecodeWorkerFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cases := [][]string{
		{"-decode-workers", "4"}, // no -i
		{"-from", "10"},          // no -i
		{"-mmap"},                // no -i
		{"-i", "x.tsm", "-decode-workers", "4", "-inmem"},
		{"-i", "x.tsm", "-from", "10", "-inmem"},
		{"-i", "x.tsm", "-mmap", "-inmem"},
		{"-i", "x.tsm", "-from", "10", "-to", "5"},
		{"-i", "x.tsm", "-from", "10", "-to", "10"},
	}
	for _, args := range cases {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v exited %d, want 2\nstderr:\n%s", args, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "tsesim:") {
			t.Fatalf("%v: stderr lacks a usage error:\n%s", args, &stderr)
		}
	}
}

// TestRunParallelDecodeMatchesSerial replays the same trace with and without
// parallel decode and requires byte-identical stdout reports — the worker
// count must never leak into results.
func TestRunParallelDecodeMatchesSerial(t *testing.T) {
	path := writeTestTrace(t)
	var serialOut, parallelOut, stderr bytes.Buffer
	if code := run([]string{"-i", path, "-quiet"}, &serialOut, &stderr); code != 0 {
		t.Fatalf("serial replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if code := run([]string{"-i", path, "-quiet", "-decode-workers", "4"}, &parallelOut, &stderr); code != 0 {
		t.Fatalf("parallel replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if serialOut.String() != parallelOut.String() {
		t.Fatalf("parallel decode changed the report\nserial:\n%s\nparallel:\n%s", &serialOut, &parallelOut)
	}
	if !strings.Contains(serialOut.String(), "TSE") {
		t.Fatalf("replay printed no report:\n%s", &serialOut)
	}
	var mmapOut bytes.Buffer
	if code := run([]string{"-i", path, "-quiet", "-mmap", "-decode-workers", "4"}, &mmapOut, &stderr); code != 0 {
		t.Fatalf("mmap replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if serialOut.String() != mmapOut.String() {
		t.Fatalf("mmap decode changed the report\nserial:\n%s\nmmap:\n%s", &serialOut, &mmapOut)
	}
}

// TestRunRangedReplay drives -from/-to end to end: a sub-range replays
// successfully and reports fewer consumptions than the whole trace.
func TestRunRangedReplay(t *testing.T) {
	path := writeTestTrace(t)
	var full, ranged, stderr bytes.Buffer
	if code := run([]string{"-i", path, "-quiet"}, &full, &stderr); code != 0 {
		t.Fatalf("full replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if code := run([]string{"-i", path, "-quiet", "-from", "100", "-to", "200"}, &ranged, &stderr); code != 0 {
		t.Fatalf("ranged replay exited %d\nstderr:\n%s", code, &stderr)
	}
	if ranged.String() == full.String() {
		t.Fatalf("ranged replay produced the full-trace report:\n%s", &ranged)
	}
	if !strings.Contains(ranged.String(), "TSE") {
		t.Fatalf("ranged replay printed no report:\n%s", &ranged)
	}
}

// TestRunInmemMatchesFused: the in-memory oracle (-inmem) and the fused
// single-decode replay print the same report lines, for TSE alone and for
// the -compare suite.
func TestRunInmemMatchesFused(t *testing.T) {
	path := writeTestTrace(t)
	for _, extra := range [][]string{nil, {"-compare"}} {
		var fused, inmem, stderr bytes.Buffer
		args := append([]string{"-i", path, "-quiet"}, extra...)
		if code := run(args, &fused, &stderr); code != 0 {
			t.Fatalf("%v exited %d\nstderr:\n%s", args, code, &stderr)
		}
		args = append(args, "-inmem")
		if code := run(args, &inmem, &stderr); code != 0 {
			t.Fatalf("%v exited %d\nstderr:\n%s", args, code, &stderr)
		}
		if fused.String() != inmem.String() {
			t.Fatalf("%v: fused and in-memory reports differ\nfused:\n%s\ninmem:\n%s", extra, &fused, &inmem)
		}
		if !strings.Contains(fused.String(), "TSE") {
			t.Fatalf("%v: replay printed no report:\n%s", extra, &fused)
		}
	}
}
