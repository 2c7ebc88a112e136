package tsm

// Facade tests for the PR 8 observability surfaces: per-run time-series
// sampled through the replay pipeline, and run manifests recording trace
// provenance, stage wall times and the final metrics snapshot.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tsm/internal/stream"
)

// TestFileReplaySeries: an attached SeriesSet collects one series per
// consumer of the TSE replay (the two timing runs), the sampling interval
// auto-sizes from the trace's indexed event count, and the final
// "timing-tse" sample carries exactly the coverage the Report states — the
// time-series lands on the end-of-run truth, not an approximation of it.
func TestFileReplaySeries(t *testing.T) {
	path := writeTestTrace(t, "db2")
	info, err := stream.Describe(path)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewSeriesSet()
	rep, err := EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{Series: ss})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Interval() == 0 {
		t.Fatal("facade did not auto-size the sampling interval from the index")
	}
	snap := ss.Snapshot()
	for _, name := range tseConsumerNames() {
		if len(snap.Series[name].Points) == 0 {
			t.Fatalf("consumer %q collected no samples; snapshot has %v", name, snap.Series)
		}
	}
	if len(snap.Series) != 2 {
		t.Fatalf("replay sampled %d consumers, want the two timing runs: %v", len(snap.Series), snap.Series)
	}
	pts := snap.Series["timing-tse"].Points
	last := pts[len(pts)-1]
	if last.Seq != info.Events-1 {
		t.Fatalf("final sample at seq %d, want last event %d", last.Seq, info.Events-1)
	}
	if got := last.Values["coverage"]; got != rep.Coverage {
		t.Fatalf("final sampled coverage %v != report coverage %v", got, rep.Coverage)
	}
	if got := last.Values["consumptions"]; got != float64(rep.Consumptions) {
		t.Fatalf("final sampled consumptions %v != report %d", got, rep.Consumptions)
	}
	// Monotonic cumulative counts: samples are ordered by seq and
	// consumptions never decrease.
	for i := 1; i < len(pts); i++ {
		if pts[i].Seq <= pts[i-1].Seq {
			t.Fatalf("sample seqs not increasing: %d then %d", pts[i-1].Seq, pts[i].Seq)
		}
		if pts[i].Values["consumptions"] < pts[i-1].Values["consumptions"] {
			t.Fatalf("cumulative consumptions decreased at sample %d", i)
		}
	}
	// The timing consumers sample per-epoch latency quantiles.
	if v, ok := last.Values["latency_p99"]; !ok || v <= 0 {
		t.Fatalf("timing series missing latency_p99: %v", last.Values)
	}
}

// TestFileReplayManifest: the manifest records the trace's content identity
// (SHA-256, codec version, chunk/event counts, workload metadata), the
// replay settings, the timed stages in order, and the final metrics
// snapshot; WriteFile produces parseable JSON.
func TestFileReplayManifest(t *testing.T) {
	path := writeTestTrace(t, "ocean")
	info, err := stream.Describe(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)

	rm := NewRunManifest()
	rm.SetCommand([]string{"tsesim", "-i", path})
	ins := Instrumentation{Metrics: NewMetrics(), Manifest: rm}
	if _, err := EvaluateTSEFileWith(path, ReplayConfig{DecodeWorkers: 2}, ins); err != nil {
		t.Fatal(err)
	}

	m := rm.Snapshot()
	if m.Tool != "tsm" || m.Version != ToolVersion {
		t.Fatalf("tool/version = %q/%q", m.Tool, m.Version)
	}
	if m.Trace.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("sha256 = %q, want %q", m.Trace.SHA256, hex.EncodeToString(sum[:]))
	}
	if m.Trace.CodecVersion != stream.Version || m.Trace.Chunks != info.Chunks || m.Trace.Events != info.Events {
		t.Fatalf("trace provenance %+v does not match Describe %+v", m.Trace, info)
	}
	if m.Trace.Workload != "ocean" || m.Trace.Nodes != 4 || m.Trace.Seed != 11 {
		t.Fatalf("workload metadata %+v", m.Trace)
	}
	if m.Replay.Op != "replay-tse" || m.Replay.DecodeWorkers != 2 {
		t.Fatalf("replay settings %+v", m.Replay)
	}
	var names []string
	for _, st := range m.Stages {
		names = append(names, st.Name)
		if st.WallNs < 0 {
			t.Fatalf("stage %q has negative wall time", st.Name)
		}
	}
	if len(names) != 3 || names[0] != "open" || names[1] != "replay" || names[2] != "hash" {
		t.Fatalf("stages = %v, want [open replay hash]", names)
	}
	if m.Metrics == nil {
		t.Fatal("manifest missing final metrics snapshot")
	}
	if n := m.Metrics.Counters["pipeline.events_decoded"]; n != info.Events {
		t.Fatalf("snapshot events_decoded = %d, want %d", n, info.Events)
	}

	out := t.TempDir() + "/manifest.json"
	if err := rm.WriteFile(out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest file is not valid JSON: %v", err)
	}
	if back.Trace.SHA256 != m.Trace.SHA256 || len(back.Stages) != len(m.Stages) {
		t.Fatalf("round-tripped manifest %+v != %+v", back, m)
	}

	// A failed open leaves the path and settings, and only the open stage.
	missing := t.TempDir() + "/missing.tsm"
	rm = NewRunManifest()
	if _, err := EvaluateTSEFileWith(missing, ReplayConfig{}, Instrumentation{Manifest: rm}); err == nil {
		t.Fatal("replaying a missing file succeeded")
	}
	m = rm.Snapshot()
	if m.Trace != (TraceProvenance{Path: missing}) || m.Replay.Op != "replay-tse" || len(m.Stages) != 1 || m.Stages[0].Name != "open" {
		t.Fatalf("failed-open manifest trace %+v, replay %+v, stages %v", m.Trace, m.Replay, m.Stages)
	}
}

// TestManifestDeterministicShape: two identical runs produce byte-identical
// manifests once the legitimately timing-dependent fields — stage wall
// times, the nanosecond/throughput metrics, the backpressure wait
// histograms, and the cursor-lag and ring-occupancy gauges, all functions of
// scheduling rather than of the evaluation — are cleared. The JSON shape,
// key order, trace provenance and every deterministic metric (event counts,
// per-consumer totals) are stable. The ring-bound invariants on lag and
// occupancy are asserted by internal/pipeline's TestObsInvariants instead.
func TestManifestDeterministicShape(t *testing.T) {
	path := writeTestTrace(t, "moldyn")
	encode := func() []byte {
		rm := NewRunManifest()
		rm.SetCommand([]string{"tsesim", "-i", path})
		if _, err := EvaluateTSEFileWith(path, ReplayConfig{}, Instrumentation{Metrics: NewMetrics(), Manifest: rm}); err != nil {
			t.Fatal(err)
		}
		m := rm.Snapshot()
		for i := range m.Stages {
			m.Stages[i].WallNs = 0
		}
		m.Metrics.Histograms = nil
		for name := range m.Metrics.Counters {
			if strings.HasSuffix(name, "_ns") {
				delete(m.Metrics.Counters, name)
			}
		}
		for name := range m.Metrics.Gauges {
			if strings.HasSuffix(name, "_per_sec") || strings.HasSuffix(name, ".lag_max") ||
				name == "pipeline.ring.occupancy" || name == "pipeline.ring.occupancy_max" {
				delete(m.Metrics.Gauges, name)
			}
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := encode(), encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("manifests differ between identical runs:\n%s\n---\n%s", a, b)
	}
}

// TestSweepSeriesAndManifest: a sweep run collects one series per cell
// (labelled like the trace lanes, e.g. "LA=8") and stamps the sweep name
// into the manifest.
func TestSweepSeriesAndManifest(t *testing.T) {
	path := writeTestTrace(t, "em3d")
	ss := NewSeriesSet()
	rm := NewRunManifest()
	cells, err := EvaluateTSESweepFileWith(path, "lookahead", ReplayConfig{}, Instrumentation{Series: ss, Manifest: rm})
	if err != nil {
		t.Fatal(err)
	}
	snap := ss.Snapshot()
	if len(snap.Series) != len(cells) {
		t.Fatalf("got %d series for %d sweep cells: %v", len(snap.Series), len(cells), snap.Series)
	}
	for _, c := range cells {
		pts := snap.Series[c.Label].Points
		if len(pts) == 0 {
			t.Fatalf("cell %q collected no samples", c.Label)
		}
		if got := pts[len(pts)-1].Values["coverage"]; got != c.Report.Coverage {
			t.Fatalf("cell %q final sampled coverage %v != report %v", c.Label, got, c.Report.Coverage)
		}
	}
	m := rm.Snapshot()
	if m.Replay.Op != "sweep" || m.Replay.Sweep != "lookahead" {
		t.Fatalf("sweep manifest replay settings %+v", m.Replay)
	}
	if len(m.Stages) != 3 || m.Stages[0].Name != "open" || m.Stages[1].Name != "sweep" || m.Stages[2].Name != "hash" {
		t.Fatalf("sweep manifest stages %v, want [open sweep hash]", m.Stages)
	}
}
