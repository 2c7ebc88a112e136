package main

// The four workloads. Each op calls the public tsm facade exactly as a CLI
// does; reference computes the same output through an independent path once
// per run; traced runs the op with its layers recorded (see trace.go).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tsm"
	"tsm/internal/coherence"
	"tsm/internal/config"
	"tsm/internal/experiments"
	"tsm/internal/mem"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/workload"
)

// nodes is the DSM node count of every workload, the paper's 16.
const nodes = 16

// scenario is one workload of the benchmark.
type scenario interface {
	// prepare generates the workload's corpus into dir. It is part of
	// set-up and may run several times.
	prepare(dir string) error
	// op runs one operation through the facade and returns the number of
	// trace events it processed.
	op() (uint64, error)
	// digest hashes the output of the last op.
	digest() (string, error)
	// reference computes the expected digest through an independent path.
	reference() (string, error)
	// traced runs one op recording its layers on t. It leaves its output
	// where op does, for digest.
	traced(t *opTrace) error
	// corpus lists the files prepare generated.
	corpus() []string
}

// prober is implemented by the workloads whose op broadcasts a trace file
// through the pipeline: probe times that broadcast alone, over the same
// events in memory, after a traced op.
type prober interface {
	probe(t *opTrace) error
}

// newScenario builds the named workload for a seed. size multiplies every
// workload scale; the benchmark runs at 1, tests at a fraction.
func newScenario(name string, seed int64, size float64) (scenario, error) {
	switch name {
	case "generate":
		return &generateScenario{opts: tsm.Options{Nodes: nodes, Scale: 0.5 * size, Seed: seed}}, nil
	case "replay":
		return &replayScenario{opts: tsm.Options{Nodes: nodes, Scale: 1 * size, Seed: seed}}, nil
	case "sweep":
		return &sweepScenario{opts: tsm.Options{Nodes: nodes, Scale: 0.25 * size, Seed: seed}}, nil
	case "figures":
		return &figuresScenario{opts: tsm.Options{Nodes: nodes, Scale: 0.05 * size, Seed: seed}, ids: figureIDs}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

// workloadNames lists the workloads in the order "-workload all" runs them.
var workloadNames = []string{"generate", "replay", "sweep", "figures"}

// writeTrace streams the named workload's classified trace into a version 3
// trace file at path, as tracegen -o does, and returns the event count.
func writeTrace(path, name string, opts tsm.Options) (n uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer func() { err = stream.CloseMerge(f, err) }()
	w, err := stream.NewWriter(f, traceMeta(name, opts))
	if err != nil {
		return 0, err
	}
	if _, n, err = tsm.StreamTrace(name, opts, w); err != nil {
		return n, err
	}
	return n, w.Close()
}

// traceMeta is the header tracegen writes for a default-length trace.
func traceMeta(name string, opts tsm.Options) stream.Meta {
	return stream.Meta{Workload: name, Nodes: opts.Nodes, Scale: opts.Scale, Seed: opts.Seed, Repeat: 1}
}

// hashFiles returns the SHA-256 of the files' contents, concatenated.
func hashFiles(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// hashString returns the SHA-256 of s.
func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// ---- generate --------------------------------------------------------------

// genWorkloads are the traces one generate op writes: a commercial and a
// scientific texture.
var genWorkloads = []string{"db2", "em3d"}

// genBatch is how many accesses the traced generate op emits before it
// classifies and encodes them, so each layer is timed per batch, never per
// event.
const genBatch = 4096

type generateScenario struct {
	opts tsm.Options
	dir  string
}

func (g *generateScenario) path(name string) string { return filepath.Join(g.dir, name+".tsm") }

func (g *generateScenario) paths(prefix string) []string {
	var out []string
	for _, name := range genWorkloads {
		out = append(out, g.path(prefix+name))
	}
	return out
}

func (g *generateScenario) prepare(dir string) error { g.dir = dir; return nil }

func (g *generateScenario) corpus() []string { return nil }

func (g *generateScenario) op() (uint64, error) {
	var total uint64
	for _, name := range genWorkloads {
		n, err := writeTrace(g.path(name), name, g.opts)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func (g *generateScenario) digest() (string, error) { return hashFiles(g.paths("")...) }

// reference materializes each trace and saves it with SaveTrace.
func (g *generateScenario) reference() (string, error) {
	for _, name := range genWorkloads {
		tr, gen, err := tsm.GenerateTrace(name, g.opts)
		if err != nil {
			return "", err
		}
		if err := tsm.SaveTrace(g.path("ref-"+name), tr, gen, g.opts); err != nil {
			return "", err
		}
	}
	return hashFiles(g.paths("ref-")...)
}

// traced rebuilds StreamTrace + the trace writer batch by batch: the
// generator fills a batch of accesses (workload.emit), the coherence engine
// classifies it (coherence.classify) and the writer encodes the events
// (stream.encode).
func (g *generateScenario) traced(t *opTrace) error {
	var accesses, events, bytes uint64
	for _, name := range genWorkloads {
		a, e, err := g.tracedOne(t, name)
		if err != nil {
			return err
		}
		st, err := os.Stat(g.path(name))
		if err != nil {
			return err
		}
		accesses, events, bytes = accesses+a, events+e, bytes+uint64(st.Size())
	}
	t.count("workload.accesses", float64(accesses))
	t.count("coherence.events", float64(events))
	t.count("stream.bytes", float64(bytes))
	return nil
}

func (g *generateScenario) tracedOne(t *opTrace, name string) (accesses, events uint64, err error) {
	sp := t.begin("tsm.setup", 0)
	spec, ok := workload.ByName(name)
	if !ok {
		return 0, 0, fmt.Errorf("bench: unknown workload %q", name)
	}
	gen := spec.New(workload.Config{Nodes: g.opts.Nodes, Seed: g.opts.Seed, Scale: g.opts.Scale, Repeat: 1})
	eng := coherence.New(coherence.Config{Nodes: g.opts.Nodes, Geometry: config.DefaultSystem().Geometry, PointersPerEntry: 2})
	sp.End()

	sp = t.begin("stream.open", 0)
	f, err := os.Create(g.path(name))
	if err != nil {
		return 0, 0, err
	}
	defer func() { err = stream.CloseMerge(f, err) }()
	w, err := stream.NewWriter(f, traceMeta(name, g.opts))
	if err != nil {
		return 0, 0, err
	}
	sp.End()

	batch := make([]mem.Access, 0, genBatch)
	var out []trace.Event
	collect := func(e trace.Event) {
		e.Seq = events
		events++
		out = append(out, e)
	}
	flush := func() error {
		sp := t.begin("coherence.classify", 0)
		for _, a := range batch {
			eng.AccessEmit(a, collect)
		}
		sp.End()
		sp = t.begin("stream.encode", 0)
		defer sp.End()
		for _, e := range out {
			if err := w.Write(e); err != nil {
				return err
			}
		}
		accesses += uint64(len(batch))
		batch, out = batch[:0], out[:0]
		return nil
	}
	emit := t.begin("workload.emit", 0)
	err = gen.Emit(func(a mem.Access) error {
		batch = append(batch, a)
		if len(batch) < genBatch {
			return nil
		}
		emit.End()
		err := flush()
		emit = t.begin("workload.emit", 0)
		return err
	})
	emit.End()
	if err == nil {
		err = flush()
	}
	if err != nil {
		return accesses, events, err
	}
	// Close encodes the final partial chunk, the trailer and the index.
	sp = t.begin("stream.encode", 0)
	err = w.Close()
	sp.End()
	return accesses, events, err
}

// ---- replay and sweep ------------------------------------------------------

// traceFile is the corpus of a workload that reads one trace file.
type traceFile struct {
	path   string
	events uint64
	mem    []trace.Event // loaded on the first broadcast probe
}

func (f *traceFile) write(dir, name string, opts tsm.Options) (err error) {
	f.path, f.mem = filepath.Join(dir, name+".tsm"), nil
	f.events, err = writeTrace(f.path, name, opts)
	return err
}

func (f *traceFile) corpus() []string { return []string{f.path} }

// probe times the broadcast of the file's events alone, from memory, in the
// given source form, into drains shaped like the op's consumers.
func (f *traceFile) probe(t *opTrace, source func([]trace.Event) stream.Source, columns []bool) error {
	if f.mem == nil {
		tr, _, err := tsm.LoadTrace(f.path)
		if err != nil {
			return err
		}
		f.mem = tr.Events
	}
	if err := t.fileBytes(f.path); err != nil {
		return err
	}
	return t.probeBroadcast(source(f.mem), columns)
}

type replayScenario struct {
	traceFile
	opts tsm.Options
	rep  tsm.Report
	out  string
}

func (r *replayScenario) prepare(dir string) error { return r.write(dir, "db2", r.opts) }

func (r *replayScenario) op() (uint64, error) { return r.run(tsm.Instrumentation{}) }

// run is the op under the given instrumentation.
func (r *replayScenario) run(ins tsm.Instrumentation) (uint64, error) {
	var err error
	r.rep, err = tsm.EvaluateTSEFileWith(r.path, tsm.ReplayConfig{}, ins)
	r.out = fmt.Sprintf("%+v", r.rep)
	return r.events, err
}

func (r *replayScenario) digest() (string, error) { return hashString(r.out), nil }

// reference loads the whole trace and evaluates it in memory.
func (r *replayScenario) reference() (string, error) {
	tr, meta, err := tsm.LoadTrace(r.path)
	if err != nil {
		return "", err
	}
	gen, err := tsm.GeneratorFor(meta)
	if err != nil {
		return "", err
	}
	rep, err := tsm.EvaluateTSE(tr, gen, tsm.OptionsFor(meta))
	if err != nil {
		return "", err
	}
	return hashString(fmt.Sprintf("%+v", rep)), nil
}

// traced runs the op with the engine's instrumentation attached: the serial
// file reader feeds the coverage model and both timing models through one
// pipeline run.
func (r *replayScenario) traced(t *opTrace) error {
	if _, err := r.run(t.instrumentation()); err != nil {
		return err
	}
	t.useful(r.rep)
	t.count("stream.events", float64(r.events))
	return nil
}

// probe times the op's broadcast alone. The timing consumers pull events
// one at a time; the coverage consumer sweeps columns.
func (r *replayScenario) probe(t *opTrace) error {
	events := func(ev []trace.Event) stream.Source { return &memChunks{events: ev} }
	return r.traceFile.probe(t, events, []bool{true, false, false})
}

type sweepScenario struct {
	traceFile
	opts    tsm.Options
	cells   []tsm.SweepCell
	out     string
	workers int
}

func (s *sweepScenario) prepare(dir string) error {
	s.workers = decodeWorkers()
	return s.write(dir, "mix-sci-com", s.opts)
}

func (s *sweepScenario) op() (uint64, error) { return s.run(tsm.Instrumentation{}) }

// run is the op under the given instrumentation.
func (s *sweepScenario) run(ins tsm.Instrumentation) (uint64, error) {
	var err error
	s.cells, err = tsm.EvaluateTSESweepFileWith(s.path, "lookahead", tsm.ReplayConfig{Mmap: true, DecodeWorkers: s.workers}, ins)
	s.out = fmt.Sprintf("%+v", s.cells)
	return s.events, err
}

func (s *sweepScenario) digest() (string, error) { return hashString(s.out), nil }

// reference sweeps the loaded trace through a plain per-event source.
func (s *sweepScenario) reference() (string, error) {
	tr, meta, err := tsm.LoadTrace(s.path)
	if err != nil {
		return "", err
	}
	cells, err := tsm.EvaluateTSESweepSource(stream.TraceSource(tr), meta, "lookahead")
	if err != nil {
		return "", err
	}
	return hashString(fmt.Sprintf("%+v", cells)), nil
}

// traced runs the op with the engine's instrumentation attached: the mmap'd
// parallel decoder feeds one unconstrained TSE consumer per lookahead of
// Figure 8.
func (s *sweepScenario) traced(t *opTrace) error {
	if _, err := s.run(t.instrumentation()); err != nil {
		return err
	}
	for _, c := range s.cells {
		t.useful(c.Report)
	}
	t.count("stream.events", float64(s.events))
	return nil
}

// probe times the op's broadcast alone: every sweep cell sweeps columns.
func (s *sweepScenario) probe(t *opTrace) error {
	columns := make([]bool, len(experiments.Fig8Lookaheads()))
	for i := range columns {
		columns[i] = true
	}
	cols := func(ev []trace.Event) stream.Source { return newMemSoA(ev) }
	return s.traceFile.probe(t, cols, columns)
}

// ---- figures ---------------------------------------------------------------

// figureIDs are the tables and figures one figures op regenerates: every
// paper result except Table 1, which is static text.
var figureIDs = []string{"table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "table3"}

type figuresScenario struct {
	opts   tsm.Options
	ids    []string
	events uint64 // summed trace lengths of the workspace, set by reference
	out    string
}

func (f *figuresScenario) prepare(string) error { return nil }

func (f *figuresScenario) corpus() []string { return nil }

func (f *figuresScenario) op() (uint64, error) {
	tables, err := tsm.RunExperiments(f.ids, f.opts)
	f.out = strings.Join(tables, "")
	return f.events, err
}

func (f *figuresScenario) digest() (string, error) { return hashString(f.out), nil }

// reference runs each experiment on its own, serially, and counts the events
// of the workspace the batch shares.
func (f *figuresScenario) reference() (string, error) {
	var b strings.Builder
	for _, id := range f.ids {
		table, err := tsm.RunExperiment(id, f.opts)
		if err != nil {
			return "", err
		}
		b.WriteString(table)
	}
	w := f.workspace()
	if err := w.Prefetch(); err != nil {
		return "", err
	}
	f.events = 0
	for _, name := range w.WorkloadNames() {
		d, err := w.Data(name)
		if err != nil {
			return "", err
		}
		f.events += uint64(len(d.Trace.Events))
	}
	return hashString(b.String()), nil
}

func (f *figuresScenario) workspace() *experiments.Workspace {
	return experiments.NewWorkspace(experiments.Options{Nodes: f.opts.Nodes, Scale: f.opts.Scale, Seed: f.opts.Seed})
}

// traced rebuilds RunExperiments: the workspace generates every trace up
// front (experiments.prefetch), then RunAll runs the drivers in parallel,
// each inside its own span. The workspace's sweeps report to the op's
// metrics registry.
func (f *figuresScenario) traced(t *opTrace) error {
	sp := t.begin("tsm.setup", 0)
	w := f.workspace()
	w.Observe(t.reg, nil)
	exps := make([]experiments.Experiment, len(f.ids))
	for i, id := range f.ids {
		exp, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("bench: unknown experiment %q", id)
		}
		run, lane := exp.Run, i+1
		exp.Run = func(w *experiments.Workspace) (experiments.Table, error) {
			sp := t.begin("experiments."+exp.ID, lane)
			defer sp.End()
			return run(w)
		}
		exps[i] = exp
	}
	sp.End()

	sp = t.begin("experiments.prefetch", 0)
	err := w.Prefetch()
	sp.End()
	if err != nil {
		return err
	}
	sp = t.begin("experiments.run", 0)
	tables, err := experiments.RunAll(w, exps)
	sp.End()
	if err != nil {
		return err
	}

	sp = t.begin("tsm.report", 0)
	var b strings.Builder
	for _, tbl := range tables {
		b.WriteString(tbl.String())
	}
	f.out = b.String()
	sp.End()
	t.count("stream.events", float64(f.events))
	return nil
}
