// Package experiments contains one driver per experiment in the evaluation:
// the paper's tables and figures (Section 5) plus the extensions grown on
// top of them — the suite-wide comparison across the full workload matrix,
// the node-count sensitivity sweep, and the cross-workload mix studies.
// Each driver reproduces its result on the synthetic workload suite and
// returns a printable Table with the same rows/series the paper (or the
// extension's doc comment) reports. Drivers share one concurrent Workspace,
// so a batch generates every workload's trace exactly once and simulates its
// paper-configuration timing pair once. The sensitivity sweeps share one
// WALK of each trace per figure, evaluating its cells as concurrent
// consumers of a single pass, and the Workspace memoizes every TSE cell by
// its canonical configuration, so a cell two figures share is evaluated once
// (see sweepCells). The
// cmd/tsesim CLI and the repository's benchmark harness are thin wrappers
// around this package.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"tsm/internal/analysis"
	"tsm/internal/coherence"
	"tsm/internal/config"
	"tsm/internal/obs"
	"tsm/internal/pipeline"
	"tsm/internal/stream"
	"tsm/internal/timing"
	"tsm/internal/trace"
	"tsm/internal/tse"
	"tsm/internal/workload"
)

// Options control the scale of an experiment run.
type Options struct {
	// Nodes is the number of DSM nodes (defaults to the Table 1 value).
	Nodes int
	// Scale is the workload scale factor (1.0 = the full synthetic
	// problem sizes; smaller values shrink traces proportionally).
	Scale float64
	// Seed seeds workload generation.
	Seed int64
	// Workloads selects a subset by name; empty means the full default
	// suite (the paper's seven applications plus the extended matrix —
	// workload.Names(), ten workloads). The cross-workload mixes are Extra:
	// outside the default suite, but selectable here by name.
	Workloads []string
}

// normalize fills in defaults.
func (o Options) normalize() Options {
	if o.Nodes <= 0 {
		o.Nodes = 16
	}
	if o.Scale <= 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier ("fig6", "table3", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows.
	Rows [][]string
	// Notes carries provenance remarks (paper values, substitutions).
	Notes string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "notes: %s\n", t.Notes)
	}
	return b.String()
}

// WorkloadData bundles everything an experiment needs for one workload.
type WorkloadData struct {
	// Spec is the registry entry.
	Spec workload.Spec
	// Generator is the constructed generator (for timing profiles).
	Generator workload.Generator
	// Trace is the classified consumption/write event stream.
	Trace *trace.Trace
	// Consumptions is the consumption count of the trace.
	Consumptions int

	// maxNodeConsumptions is the largest per-node consumption count: a
	// CMOB of at least this many entries never wraps on this trace.
	maxNodeConsumptions int
}

// canonical returns the one configuration that every configuration behaving
// identically to cfg on this trace maps to. System.Consume appends every
// consumption to its node's CMOB, and an entry stays readable while fewer
// than capacity entries follow it, so a CMOB that never wraps is exactly an
// unlimited one (CMOBEntries 0).
func (d *WorkloadData) canonical(cfg tse.Config) tse.Config {
	if cfg.CMOBEntries >= d.maxNodeConsumptions {
		cfg.CMOBEntries = 0
	}
	return cfg
}

// Workspace prepares and caches workload traces so that a batch of
// experiments shares them. It is safe for concurrent use: each workload's
// trace is generated exactly once (the first caller generates, concurrent
// callers block on the same entry), so independent experiments and models
// can run in parallel over shared traces without regenerating them. TSE
// sweep cells are cached the same way, by workload and canonical
// configuration.
type Workspace struct {
	opts   Options
	system config.SystemConfig

	// metrics and tracer, when set via Observe, instrument every sweep the
	// batch runs (both are concurrency-safe, so parallel experiments share
	// them freely).
	metrics *obs.Registry
	tracer  *obs.Tracer

	mu    sync.Mutex
	data  map[string]*workloadEntry
	cells map[cellKey]*cellEntry
}

// cellKey names one TSE sweep cell: a workload's data and the canonical form
// of the cell's configuration (WorkloadData.canonical).
type cellKey struct {
	data *WorkloadData
	cfg  tse.Config
}

// cellEntry is one memoized sweep cell. The driver that claims it sets res
// or err and then closes done; every other driver reads them after done.
type cellEntry struct {
	done chan struct{}
	res  analysis.CoverageResult
	err  error
}

// workloadEntry guards one workload's lazily generated data and, behind a
// second Once, its paper-configuration timing pair.
type workloadEntry struct {
	once sync.Once
	d    *WorkloadData
	err  error

	pairOnce sync.Once
	pair     paperPair
	pairErr  error
}

// paperPair is one workload's paired baseline and TSE timing simulations
// under the paper's TSE configuration. withTSE.TSE is the trace-driven
// result of the TSE run's own system: the coverage, discards, stream lengths
// and traffic every paper-configuration figure reports, from the same run
// as its timing.
type paperPair struct {
	base, withTSE timing.Result
}

// NewWorkspace builds a workspace for the given options.
func NewWorkspace(opts Options) *Workspace {
	opts = opts.normalize()
	sys := config.DefaultSystem()
	sys.Nodes = opts.Nodes
	return &Workspace{opts: opts, system: sys, data: make(map[string]*workloadEntry), cells: make(map[cellKey]*cellEntry)}
}

// Observe attaches a metrics registry and/or stage tracer to the workspace:
// every figure's one-walk sweep batch then reports per-cell consumer
// throughput (labelled "<workload>/cell<i>") through them. Call before
// running experiments; either argument may be nil.
func (w *Workspace) Observe(m *obs.Registry, tr *obs.Tracer) {
	w.metrics = m
	w.tracer = tr
}

// Options returns the normalised options.
func (w *Workspace) Options() Options { return w.opts }

// System returns the Table 1 system configuration in use.
func (w *Workspace) System() config.SystemConfig { return w.system }

// WorkloadNames returns the selected workload names in registry order. With
// no explicit selection it is the default suite (the cross-workload mixes are
// excluded, keeping the suite-wide goldens independent of registered mixes);
// an explicit selection may name any registered workload, mixes included.
func (w *Workspace) WorkloadNames() []string {
	if len(w.opts.Workloads) == 0 {
		return workload.Names()
	}
	// Preserve registry order while honouring the selection.
	selected := make(map[string]bool, len(w.opts.Workloads))
	for _, n := range w.opts.Workloads {
		selected[strings.ToLower(n)] = true
	}
	var out []string
	for _, n := range workload.AllNames() {
		if selected[n] {
			out = append(out, n)
		}
	}
	return out
}

// entry returns a workload's cache entry, creating it on first use.
func (w *Workspace) entry(name string) *workloadEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.data[name]
	if !ok {
		e = &workloadEntry{}
		w.data[name] = e
	}
	return e
}

// Data returns (generating lazily, exactly once, concurrency-safe) the
// trace and generator for a workload.
func (w *Workspace) Data(name string) (*WorkloadData, error) {
	name = strings.ToLower(name)
	e := w.entry(name)
	e.once.Do(func() { e.d, e.err = w.generate(name) })
	return e.d, e.err
}

// paper returns a workload's data and its paper-configuration timing pair,
// simulated exactly once per Workspace the way Data generates the trace
// once: the one paper-configuration TSE run every figure shares.
func (w *Workspace) paper(name string) (*WorkloadData, *paperPair, error) {
	data, err := w.Data(name)
	if err != nil {
		return nil, nil, err
	}
	e := w.entry(strings.ToLower(name))
	e.pairOnce.Do(func() {
		params := timing.Params{Profile: data.Generator.Timing(), Nodes: w.opts.Nodes}
		if e.pair.base, e.pairErr = timing.Simulate(data.Trace, params); e.pairErr != nil {
			return
		}
		cfg := paperTSEConfig(w.opts.Nodes, params.Profile.Lookahead)
		params.TSE = &cfg
		e.pair.withTSE, e.pairErr = timing.Simulate(data.Trace, params)
	})
	return data, &e.pair, e.pairErr
}

// generate builds one workload's trace. Called at most once per workload.
func (w *Workspace) generate(name string) (*WorkloadData, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		known := strings.Join(workload.AllNames(), ", ")
		return nil, fmt.Errorf("experiments: unknown workload %q (known: %s)", name, known)
	}
	gen := spec.New(workload.Config{Nodes: w.opts.Nodes, Seed: w.opts.Seed, Scale: w.opts.Scale})
	// Classify the accesses with the functional coherence engine, whose
	// private caches are infinite: the paper's framing is that
	// coherence misses are what remain as caches grow, and it keeps the
	// opportunity studies free of capacity-miss noise. Generation streams
	// straight into the engine — only the classified trace the experiments
	// share is materialized, never the raw access stream.
	eng := coherence.New(coherence.Config{Nodes: w.opts.Nodes, Geometry: w.system.Geometry})
	tr, err := eng.RunFrom(gen.Emit)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", name, err)
	}
	perNode := make([]int, w.opts.Nodes)
	for _, e := range tr.Events {
		if e.Kind == trace.KindConsumption {
			perNode[e.Node]++
		}
	}
	return &WorkloadData{
		Spec:                spec,
		Generator:           gen,
		Trace:               tr,
		Consumptions:        tr.ConsumptionCount(),
		maxNodeConsumptions: slices.Max(perNode),
	}, nil
}

// Prefetch generates every selected workload's trace, fanned out over the
// worker pool. Experiments that run afterwards (serially or via RunAll) hit
// only cached traces. It is an error-reporting convenience: Data remains
// the unit of sharing.
func (w *Workspace) Prefetch() error {
	names := w.WorkloadNames()
	_, err := stream.RunOrdered(len(names), 0, func(i int) (struct{}, error) {
		_, err := w.Data(names[i])
		return struct{}{}, err
	})
	return err
}

// RunAll runs a batch of experiments over the shared workspace with the
// independent experiments executing in parallel, and returns their tables
// in input order. Each workload's trace is still generated exactly once
// (the first experiment to need it generates, the rest share), and every
// table is identical to a serial exp.Run(w) loop because the drivers only
// read shared state.
func RunAll(w *Workspace, exps []Experiment) ([]Table, error) {
	return stream.RunOrdered(len(exps), 0, func(i int) (Table, error) {
		return exps[i].Run(w)
	})
}

// sweepCells returns the coverage of every cell of a figure's TSE
// configuration sweep over data, which must be w's own (from w.Data). Each
// distinct cell is evaluated once per Workspace: cells are memoized by their
// canonical configuration, so Figure 7's streams=2 cell is Figure 8's LA=8
// cell, and a CMOB that never wraps shares the unlimited cell.
//
// Under w.mu a call claims every cell no one holds yet. It evaluates them
// over ONE walk of the trace, as concurrent consumers of a single pass
// through analysis.SweepWith, and publishes them before it waits on cells
// other drivers have in flight. A driver never waits before finishing its
// own cells, so parallel drivers cannot deadlock. A failed walk's error
// reaches every waiter, and its cells leave the memo so that a later call
// retries them. The per-cell results are bit-identical to per-cell
// EvaluateTSE passes, which keeps every sweep figure's golden byte-identical.
func sweepCells(w *Workspace, data *WorkloadData, cfgs []tse.Config) ([]analysis.CoverageResult, error) {
	entries := make([]*cellEntry, len(cfgs))
	var claimed []cellKey
	var claimedEntries []*cellEntry
	w.mu.Lock()
	for i, cfg := range cfgs {
		k := cellKey{data, data.canonical(cfg)}
		e, ok := w.cells[k]
		if !ok {
			e = &cellEntry{done: make(chan struct{})}
			w.cells[k] = e
			claimed = append(claimed, k)
			claimedEntries = append(claimedEntries, e)
		}
		entries[i] = e
	}
	w.mu.Unlock()

	if len(claimed) > 0 {
		w.evaluateCells(data, claimed, claimedEntries)
	}
	out := make([]analysis.CoverageResult, len(cfgs))
	for i, e := range entries {
		<-e.done
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.res
	}
	return out, nil
}

// evaluateCells walks the cells a sweepCells call claimed and publishes
// them: on an error it drops them from the memo, then it closes every
// entry's done channel.
func (w *Workspace) evaluateCells(data *WorkloadData, keys []cellKey, entries []*cellEntry) {
	pcfg := pipeline.Config{Metrics: w.metrics, Tracer: w.tracer}
	cfgs := make([]tse.Config, len(keys))
	for i, k := range keys {
		cfgs[i] = k.cfg
		if pcfg.Metrics != nil || pcfg.Tracer != nil {
			pcfg.ConsumerNames = append(pcfg.ConsumerNames, fmt.Sprintf("%s/cell%d", data.Spec.Name, i))
		}
	}
	results, err := analysis.SweepWith(pcfg, cfgs, stream.TraceSource(data.Trace))
	if err != nil {
		err = fmt.Errorf("experiments: sweeping %s: %w", data.Spec.Name, err)
		w.mu.Lock()
		for _, k := range keys {
			delete(w.cells, k)
		}
		w.mu.Unlock()
	}
	for i, e := range entries {
		if err != nil {
			e.err = err
		} else {
			e.res = results[i].Coverage
		}
		close(e.done)
	}
}

// Runner is the signature of an experiment driver.
type Runner func(w *Workspace) (Table, error)

// Experiment pairs an identifier with its driver.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// All returns every experiment in the paper's presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "DSM system parameters (Table 1)", Run: Table1},
		{ID: "table2", Title: "Applications and parameters (Table 2)", Run: Table2},
		{ID: "fig6", Title: "Opportunity to exploit temporal correlation (Figure 6)", Run: Fig6},
		{ID: "fig7", Title: "Sensitivity to the number of compared streams (Figure 7)", Run: Fig7},
		{ID: "fig8", Title: "Effect of stream lookahead on discards (Figure 8)", Run: Fig8},
		{ID: "fig9", Title: "Sensitivity to SVB size (Figure 9)", Run: Fig9},
		{ID: "fig10", Title: "CMOB storage requirements (Figure 10)", Run: Fig10},
		{ID: "fig11", Title: "Interconnect bisection bandwidth overhead (Figure 11)", Run: Fig11},
		{ID: "fig12", Title: "TSE compared to recent prefetchers (Figure 12)", Run: Fig12},
		{ID: "fig13", Title: "Stream length distribution (Figure 13)", Run: Fig13},
		{ID: "table3", Title: "Streaming timeliness (Table 3)", Run: Table3},
		{ID: "fig14", Title: "Performance improvement from TSE (Figure 14)", Run: Fig14},
		{ID: "suite", Title: "Suite-wide TSE comparison (full workload matrix)", Run: Suite},
		{ID: "sensitivity", Title: "TSE coverage sensitivity to node count (4/16/32/64)", Run: Sensitivity},
		{ID: "mix", Title: "Cross-workload mix vs its colocated parts (memkv + cdn)", Run: MixExperiment},
		{ID: "mix-sci-com", Title: "Scientific + commercial mix vs its colocated parts (em3d + db2)", Run: MixSciComExperiment},
	}
}

// ByID looks up an experiment by identifier.
func ByID(id string) (Experiment, bool) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment identifiers (useful for CLI help).
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
