package main

// Traced ops and per-layer accounting. A traced op records spans on the
// run's obs.Tracer and counters on its own metrics registry, and its layer
// values are derived from them afterwards. replay and sweep call the facade
// itself with its Instrumentation attached, so the spans and counters are the
// ones the engine already emits: one span per pipeline consumer, named by
// its label; a "chunk" span around each producer fill; the pipeline's wall,
// stall and ring counters; the decoder's worker busy counters; and, from the
// run manifest, the open and replay stage times. generate and figures have
// no such seam, so their traced ops are rebuilt from the facade's pieces with
// a span around each layer call.
//
// From one traced op:
//
//   - <span>_ns: summed duration of each hand-built span (workload.emit_ns,
//     coherence.classify_ns, stream.encode_ns, experiments.<id>_ns, ...);
//   - stream.open_ns, tsm.run_ns, tsm.manifest_ns: the manifest's stages;
//   - <layer>.busy_ns: consumer span minus the consumer's stall counter;
//   - stream.decode_wait_ns: the producer's "chunk" spans;
//   - tsm.self_ns: the facade's own time outside every layer;
//   - unaccounted_ns: op time no top-level span or stage covers;
//   - bound_layer: the busiest consumer, or "decode" when every consumer
//     stalls for more than half the pipeline run.

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"time"

	"tsm"
	"tsm/internal/obs"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/trace"
)

// benchCat is the category of the spans the benchmark records itself. Spans
// on lane 0 run one after another and make up the op; spans on other lanes
// run inside one of them.
const benchCat = "bench"

// maxTracedOps is how many ops of a traced run are traced; the other ops run
// untraced, as the baseline of trace_overhead_frac.
const maxTracedOps = 5

// opTrace is the recording context of one traced op.
type opTrace struct {
	tr    *obs.Tracer
	first int // index of the op's first span in tr
	reg   *obs.Registry
	man   *tsm.RunManifest
	vals  map[string]float64 // values measured outside spans

	// stages are the manifest's stage times, read after the op.
	stages []tsm.ManifestStage
	// covered and resolved sum the op's TSE coverage reports: blocks that
	// covered a miss, and blocks that either covered one or were discarded.
	covered, resolved float64
	tseCells          int
}

func newOpTrace(tr *obs.Tracer) *opTrace {
	return &opTrace{
		tr: tr, first: len(tr.Spans()), reg: obs.NewRegistry(), man: tsm.NewRunManifest(),
		vals: map[string]float64{},
	}
}

// begin starts a hand-built span for a layer call.
func (t *opTrace) begin(name string, lane int) *obs.SpanHandle {
	return t.tr.Begin(name, benchCat, lane)
}

func (t *opTrace) count(name string, v float64) { t.vals[name] += v }

// instrumentation attaches the op's registry, the run's tracer and the op's
// manifest to a facade call.
func (t *opTrace) instrumentation() tsm.Instrumentation {
	return tsm.Instrumentation{Metrics: t.reg, Tracer: t.tr, Manifest: t.man}
}

// useful adds one TSE coverage report. Coverage and discards are both
// shares of the same consumptions, so their ratio is a ratio of counts.
func (t *opTrace) useful(r tsm.Report) {
	t.covered += r.Coverage
	t.resolved += r.Coverage + r.Discards
	t.tseCells++
}

// fileBytes records the size of the op's trace file.
func (t *opTrace) fileBytes(path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.vals["stream.bytes"] = float64(st.Size())
	return nil
}

// probeBroadcast times the broadcast alone: one pipeline pass of src, in
// memory, into drain consumers of the op's shape (columns[i] says whether
// consumer i sweeps columns).
func (t *opTrace) probeBroadcast(src stream.Source, columns []bool) error {
	drains := make([]pipeline.Consumer, len(columns))
	for i, c := range columns {
		drains[i] = drain(c)
	}
	t0 := time.Now()
	err := pipeline.Run(src, drains...)
	t.vals["pipeline.broadcast_ns"] = float64(time.Since(t0))
	return err
}

// memChunks serves in-memory events in codec-sized chunks, the form the
// serial file reader hands the pipeline.
type memChunks struct {
	events []trace.Event
	pos    int
}

func (m *memChunks) Next() (trace.Event, error) {
	if m.pos >= len(m.events) {
		return trace.Event{}, io.EOF
	}
	m.pos++
	return m.events[m.pos-1], nil
}

func (m *memChunks) NextChunk() ([]trace.Event, error) {
	if m.pos >= len(m.events) {
		return nil, io.EOF
	}
	hi := min(m.pos+stream.DefaultChunkEvents, len(m.events))
	ev := m.events[m.pos:hi]
	m.pos = hi
	return ev, nil
}

// memSoA serves in-memory events as codec-sized column chunks, the form the
// parallel decoder hands the pipeline.
type memSoA struct {
	all  stream.ChunkSoA
	view stream.ChunkSoA
	pos  int
}

func newMemSoA(events []trace.Event) *memSoA {
	m := &memSoA{}
	m.all.AppendEvents(events)
	return m
}

func (m *memSoA) Next() (trace.Event, error) {
	if m.pos >= m.all.Len() {
		return trace.Event{}, io.EOF
	}
	m.pos++
	return m.all.Event(m.pos - 1), nil
}

func (m *memSoA) NextChunkSoA() (*stream.ChunkSoA, error) {
	if m.pos >= m.all.Len() {
		return nil, io.EOF
	}
	hi := min(m.pos+stream.DefaultChunkEvents, m.all.Len())
	m.view = m.all.Slice(m.pos, hi)
	m.pos = hi
	return &m.view, nil
}

// drain is a consumer that reads its whole stream and computes nothing: by
// columns when columns is set and the source offers them, else one event at
// a time.
func drain(columns bool) pipeline.Consumer {
	return pipeline.ConsumerFunc(func(src stream.Source) error {
		if ss, ok := src.(stream.SoASource); ok && columns {
			for {
				if _, err := ss.NextChunkSoA(); err != nil {
					return eofNil(err)
				}
			}
		}
		for {
			if _, err := src.Next(); err != nil {
				return eofNil(err)
			}
		}
	})
}

func eofNil(err error) error {
	if err == io.EOF {
		return nil
	}
	return err
}

// stageNames maps the facade's manifest stages onto layer values. The hash
// stage is the manifest's own work: accounted, but no layer's.
var stageNames = map[string]string{
	"open":   "stream.open",
	"replay": "tsm.run",
	"sweep":  "tsm.run",
	"hash":   "tsm.manifest",
}

// consumerLayer maps a facade consumer label to its layer: the timing
// models by name, every other consumer (the coverage model, the sweep's
// "LA=8" cells) a TSE coverage consumer.
func consumerLayer(label string) string {
	switch label {
	case "timing-base":
		return "timing.base"
	case "timing-tse":
		return "timing.tse"
	}
	return "tse"
}

var unsafeLabel = regexp.MustCompile(`[^A-Za-z0-9_.-]`)

// sanitize maps a consumer label onto the metric-name alphabet ("LA=8" →
// "LA_8").
func sanitize(label string) string { return unsafeLabel.ReplaceAllString(label, "_") }

// layerReport is one traced op's accounting.
type layerReport struct {
	Values     map[string]float64 `json:"values"`
	BoundLayer string             `json:"bound_layer"`
}

// account derives the op's layer values from its spans, its registry, its
// manifest stages and the values measured outside spans.
func (t *opTrace) account() (layerReport, error) {
	if n := t.tr.Dropped(); n > 0 {
		return layerReport{}, fmt.Errorf("bench: %d spans dropped over the tracer's limit", n)
	}
	spans := t.tr.Spans()[t.first:]
	v := map[string]float64{}
	for k, x := range t.vals {
		v[k] = x
	}
	var top float64 // time of the spans and stages that make up the op
	for _, st := range t.stages {
		if name, ok := stageNames[st.Name]; ok {
			v[name+"_ns"] += float64(st.WallNs)
			top += float64(st.WallNs)
		}
	}

	snap := t.reg.Snapshot()
	v["pipeline.run_ns"] = float64(snap.Counters["pipeline.wall_ns"])
	type busy struct {
		name string
		ns   float64
	}
	var consumers []busy
	for _, s := range spans {
		d := float64(s.Dur)
		switch {
		case s.Cat == benchCat && s.Name == "op":
			v["op_ns"] = d
		case s.Cat == benchCat:
			v[s.Name+"_ns"] += d
			if s.Lane == 0 {
				top += d
			}
		case s.Cat == "consumer":
			// A consumer: busy is its wall minus the time it waited for chunks.
			stall := float64(snap.Counters["pipeline.consumer."+s.Name+".stall_ns"])
			layer := consumerLayer(s.Name)
			v[layer+".busy_ns"] += d - stall
			consumers = append(consumers, busy{fmt.Sprintf("%s (%s)", layer, s.Name), d - stall})
		case s.Cat == "decode" && s.Lane == 0:
			// The producer's fill of one chunk, decode included.
			v["stream.decode_wait_ns"] += d
		}
	}
	wall := v["op_ns"]
	if wall == 0 {
		return layerReport{}, fmt.Errorf("bench: traced op recorded no op span")
	}

	stallMin, allStall := math.Inf(1), true
	var workerBusy float64
	for name, n := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "pipeline.consumer.") && strings.HasSuffix(name, ".stall_ns"):
			label := strings.TrimSuffix(strings.TrimPrefix(name, "pipeline.consumer."), ".stall_ns")
			v["pipeline.consumer."+sanitize(label)+".stall_ns"] = float64(n)
			stallMin = math.Min(stallMin, float64(n))
			allStall = allStall && float64(n) > v["pipeline.run_ns"]/2
		case strings.HasPrefix(name, "stream.decode.worker.") && strings.HasSuffix(name, ".busy_ns"):
			workerBusy += float64(n)
		}
	}
	if !math.IsInf(stallMin, 1) {
		v["pipeline.consumer_stall_min_ns"] = stallMin
	}
	// A serial decoder decodes inside the producer's wait, so with no worker
	// busy time the wait is the busy time.
	v["stream.decode_busy_ns"] = v["stream.decode_wait_ns"]
	if workerBusy > 0 {
		v["stream.decode_busy_ns"] = workerBusy
	}
	v["pipeline.producer_stall_ns"] = float64(snap.Counters["pipeline.producer.stall_ns"])
	v["pipeline.ring_occupancy_max"] = float64(snap.Gauges["pipeline.ring.occupancy_max"])
	v["tsm.self_ns"] = v["tsm.setup_ns"] + v["tsm.report_ns"]
	if v["tsm.run_ns"] > 0 {
		// The facade's replay stage holds the pipeline run, plus building
		// the consumers and the report.
		v["tsm.self_ns"] += v["tsm.run_ns"] - v["pipeline.run_ns"]
	}
	v["unaccounted_ns"] = wall - top

	events := v["stream.events"]
	if events == 0 {
		events = v["coherence.events"]
	}
	if events > 0 {
		v["stream.bytes_per_event"] = v["stream.bytes"] / events
		v["pipeline.broadcast_ns_per_event"] = v["pipeline.broadcast_ns"] / events
		if t.tseCells > 0 {
			v["tse.ns_per_event"] = v["tse.busy_ns"] / (events * float64(t.tseCells))
		}
	}
	if v["workload.accesses"] > 0 {
		v["coherence.events_per_access"] = v["coherence.events"] / v["workload.accesses"]
	}
	if t.resolved > 0 {
		v["tse.useful_frac"] = t.covered / t.resolved
	}

	// The bounding layer: for a pipeline op its busiest consumer, unless
	// every consumer mostly waits on decode; otherwise the innermost
	// hand-built layer with the most time (spans on other lanes run inside
	// lane 0's, so they are preferred when there are any).
	var bound busy
	if len(consumers) > 0 {
		for _, c := range consumers {
			if c.ns > bound.ns {
				bound = c
			}
		}
		if allStall {
			bound = busy{"decode", v["stream.decode_busy_ns"]}
		}
	} else {
		inner := false
		for _, s := range spans {
			inner = inner || (s.Cat == benchCat && s.Lane != 0)
		}
		sums := map[string]float64{}
		for _, s := range spans {
			if s.Cat == benchCat && s.Name != "op" && (s.Lane != 0) == inner {
				sums[s.Name] += float64(s.Dur)
			}
		}
		for name, ns := range sums {
			if ns > bound.ns || (ns == bound.ns && name < bound.name) {
				bound = busy{name, ns}
			}
		}
	}
	v["bound.busy_ns"] = bound.ns
	return layerReport{Values: v, BoundLayer: bound.name}, nil
}

// shares are the per-layer metrics reported as a share of the traced op's
// wall time, with the layer value each divides. Shares make every metric
// meaningful on every workload: a layer a workload does not exercise reads 0.
var shares = []struct{ metric, ns string }{
	{"unaccounted_frac", "unaccounted_ns"},
	{"bound.busy_frac", "bound.busy_ns"},
	{"tsm.self_frac", "tsm.self_ns"},
	{"workload.emit_frac", "workload.emit_ns"},
	{"coherence.classify_frac", "coherence.classify_ns"},
	{"stream.open_frac", "stream.open_ns"},
	{"stream.encode_frac", "stream.encode_ns"},
	{"stream.decode_wait_frac", "stream.decode_wait_ns"},
	{"stream.decode_busy_frac", "stream.decode_busy_ns"},
	{"pipeline.run_frac", "pipeline.run_ns"},
	{"pipeline.producer_stall_frac", "pipeline.producer_stall_ns"},
	{"pipeline.consumer_stall_min_frac", "pipeline.consumer_stall_min_ns"},
	{"pipeline.broadcast_frac", "pipeline.broadcast_ns"},
	{"tse.busy_frac", "tse.busy_ns"},
	{"timing.base.busy_frac", "timing.base.busy_ns"},
	{"timing.tse.busy_frac", "timing.tse.busy_ns"},
	{"experiments.prefetch_frac", "experiments.prefetch_ns"},
	{"experiments.run_frac", "experiments.run_ns"},
}

// direct are the per-layer metrics reported as measured, with their units.
var direct = []struct{ metric, unit string }{
	{"workload.accesses", "count"},
	{"coherence.events_per_access", "ratio"},
	{"stream.bytes_per_event", "B/event"},
	{"pipeline.ring_occupancy_max", "count"},
	{"tse.useful_frac", "frac"},
}

// layerMetrics maps one traced op's layer values onto the per-layer
// metrics, keyed by name with their units.
func layerMetrics(v map[string]float64) map[string]metric {
	wall := v["op_ns"]
	m := map[string]metric{"op_ms": {wall / 1e6, "ms"}}
	for _, s := range shares {
		m[s.metric] = metric{v[s.ns] / wall, "frac"}
	}
	for _, id := range figureIDs {
		m["experiments."+id+"_frac"] = metric{v["experiments."+id+"_ns"] / wall, "frac"}
	}
	for _, d := range direct {
		m[d.metric] = metric{v[d.metric], d.unit}
	}
	return m
}
