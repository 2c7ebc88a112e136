package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The paper-fidelity check: the paper values the experiment notes cite,
// tested against one pinned configuration. Values move with scale (db2's
// Figure 6 opportunity at ±1 reads 61.1% at scale 1 and 68.6% at scale
// 0.25), so the configuration is fixed here, not taken from a flag.
var fidelityOptions = Options{
	Nodes: 16, Scale: 1, Seed: 1,
	Workloads: []string{"em3d", "moldyn", "ocean", "apache", "db2", "oracle", "zeus"},
}

var (
	fidelityScientific = []string{"em3d", "moldyn", "ocean"}
	fidelityCommercial = []string{"apache", "db2", "oracle", "zeus"}
)

// fidelityRange is one cited paper range, checked on one column of one
// experiment for each named workload. Bounds are inclusive; an open end is
// an infinity. deviating names the workloads whose reproduced value lies
// outside the range at fidelityOptions: each is a known deviation, logged by
// name, and the test fails if one of them enters the range (so the list is
// kept true) or if any other row leaves it.
type fidelityRange struct {
	exp       string
	column    string
	workloads []string
	lo, hi    float64
	cite      string
	deviating []string
}

var fidelityRanges = []fidelityRange{
	{"fig6", "±1", fidelityScientific, 93, math.Inf(1),
		"scientific >93% at distance ±1", []string{"moldyn", "ocean"}},
	{"fig6", "±8", fidelityCommercial, 40, 65,
		"commercial 40-65% by distance ±8-16", nil},
	{"fig6", "±16", fidelityCommercial, 40, 65,
		"commercial 40-65% by distance ±8-16", nil},
	{"fig13", "<=8", fidelityCommercial, 30, 45,
		"commercial 30-45% of hits from streams shorter than 8", fidelityCommercial},
	{"fig11", "Overhead (GB/s)", fidelityOptions.Workloads, math.Inf(-1), 4,
		"overhead below ~4 GB/s", nil},
	{"fig11", "CMOB pin-bandwidth overhead", fidelityScientific, 4, 7,
		"CMOB recording adds 4-7% pin bandwidth for scientific workloads", []string{"em3d", "ocean"}},
	{"fig11", "CMOB pin-bandwidth overhead", fidelityCommercial, math.Inf(-1), 1,
		"CMOB recording adds <1% pin bandwidth for commercial workloads", fidelityCommercial},
	{"table3", "Partial Cov.", fidelityOptions.Workloads, 5, 57,
		"partial coverage 5-57% (em3d 5 ... ocean 57)", fidelityOptions.Workloads},
	{"fig14", "Speedup", fidelityScientific, 1.07, 3.29,
		"scientific speedups 1.07-3.29", nil},
	{"fig14", "Speedup", fidelityCommercial, 1.06, 1.21,
		"commercial speedups 1.06-1.21", []string{"db2", "oracle"}},
}

// fidelityHighest is a cited ordering: highest has the largest value of the
// column among workloads.
var fidelityHighest = []struct {
	exp, column, highest string
	workloads            []string
}{
	{"fig14", "Speedup", "em3d", fidelityScientific},
	{"fig14", "Speedup", "db2", fidelityCommercial},
}

// TestPaperFidelity runs the five experiments whose notes cite paper values
// over one shared workspace and checks every cited range and ordering.
func TestPaperFidelity(t *testing.T) {
	ids := []string{"fig6", "fig11", "fig13", "table3", "fig14"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		exps[i] = exp
	}
	tables, err := RunAll(NewWorkspace(fidelityOptions), exps)
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[string]map[string]map[string]float64, len(tables))
	for _, tbl := range tables {
		values[tbl.ID] = parseFidelityTable(t, tbl)
	}
	value := func(exp, column, name string) float64 {
		v, ok := values[exp][name][column]
		if !ok {
			t.Fatalf("%s has no %q value for %s", exp, column, name)
		}
		return v
	}

	for _, r := range fidelityRanges {
		for _, name := range r.workloads {
			v := value(r.exp, r.column, name)
			inside := v >= r.lo && v <= r.hi
			known := slices.Contains(r.deviating, name)
			row := fmt.Sprintf("%s %s %s = %g (paper: %s)", r.exp, name, r.column, v, r.cite)
			switch {
			case known && !inside:
				t.Logf("known deviation: %s", row)
			case known:
				t.Errorf("%s is now inside its range: drop it from the known deviations", row)
			case !inside:
				t.Errorf("%s left its range", row)
			}
		}
	}
	for _, o := range fidelityHighest {
		top := value(o.exp, o.column, o.highest)
		for _, name := range o.workloads {
			if v := value(o.exp, o.column, name); v > top {
				t.Errorf("%s: %s %s %g exceeds %s's %g; the paper has %s highest", o.exp, name, o.column, v, o.highest, top, o.highest)
			}
		}
	}
}

// parseFidelityTable reads a table's rows as workload -> column -> number,
// dropping the "%" and "±" decorations. Cells that are not numbers (Figure
// 14's busy/other/coherent triples) are skipped.
func parseFidelityTable(t *testing.T, tbl Table) map[string]map[string]float64 {
	t.Helper()
	out := make(map[string]map[string]float64, len(tbl.Rows))
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s row %v has %d cells for %d columns", tbl.ID, row, len(row), len(tbl.Columns))
		}
		cells := make(map[string]float64, len(row))
		for i, cell := range row[1:] {
			s := strings.TrimPrefix(strings.TrimSuffix(strings.TrimSpace(cell), "%"), "±")
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				cells[tbl.Columns[i+1]] = v
			}
		}
		out[row[0]] = cells
	}
	return out
}
