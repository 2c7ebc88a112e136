package main

// -compare: two sets of runs, judged per (workload, end-to-end metric)
// against the bounds in BENCHMARK.json, and optionally one claimed gain
// tested by the pair-win rule.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

var errNoRuns = errors.New("no run JSON found")

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadRuns reads every untraced run JSON in dir, grouped by workload in
// start-time order.
func loadRuns(dir string) (map[string][]runResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: %w", dir, errNoRuns)
	}
	sort.Strings(paths)
	out := map[string][]runResult{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// values collects one metric across runs.
func values(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// worse returns how much worse b is than a, as a share of a (negative when
// b is better).
func worse(a, b float64, lowerBetter bool) float64 {
	if lowerBetter {
		return (b - a) / a
	}
	return (a - b) / a
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, lowerBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if worse(x, y, lowerBetter) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges set b against set a for one metric: "unresolved" when
// either set's quartile spread is wider than the bound (unless every run of
// b reads better than every run of a), "regressed" when b's median is worse
// than a's by more than the bound, "agree" otherwise.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	if (spread(a) > bound || spread(b) > bound) && !allBetter(a, b, lowerBetter) {
		return "unresolved"
	}
	if worse(median(a), median(b), lowerBetter) > bound {
		return "regressed"
	}
	return "agree"
}

// pairWins applies the pair-win rule to a claimed gain of b over a: runs
// pair up in start order, b must win at least nine tenths of the pairs
// (ties count for neither), and the medians must differ, in b's favour, by
// more than a's interquartile distance.
func pairWins(a, b []float64, lowerBetter bool) (wins, pairs int, met bool) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if worse(a[i], b[i], lowerBetter) < 0 {
			wins++
		}
	}
	q1, q3 := quartiles(a)
	gain := -worse(median(a), median(b), lowerBetter) * median(a)
	met = pairs > 0 && 10*wins >= 9*pairs && gain > q3-q1
	return wins, pairs, met
}

// runCompare prints the comparison table; it exits 1 on any regression or
// an unmet claim.
func runCompare(specPath, dirA, dirB, claim string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	setA, err := loadRuns(dirA)
	if err == nil {
		var setB map[string][]runResult
		if setB, err = loadRuns(dirB); err == nil {
			return compareSets(spec, setA, setB, claim, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

func compareSets(spec benchmarkSpec, setA, setB map[string][]runResult, claim string, stdout, stderr io.Writer) int {
	status := 0
	fmt.Fprintf(stdout, "%-9s %-17s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, w := range spec.Workloads {
		a, b := setA[w.Name], setB[w.Name]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			lower := m.Better == "lower"
			v := verdict(va, vb, m.Bound, lower)
			if m.Name == "peak_rss_mb" && len(va) > 0 && len(vb) > 0 && !samePeakKind(a, b) {
				v = "incomparable"
			}
			if v == "regressed" || v == "incomparable" {
				status = 1
			}
			change := math.NaN()
			if len(va) > 0 && len(vb) > 0 {
				change = (median(vb) - median(va)) / median(va)
			}
			fmt.Fprintf(stdout, "%-9s %-17s %-34s %-34s %+7.1f%%  %s\n", w.Name, m.Name, summary(va), summary(vb), 100*change, v)
		}
		da, db := digests(a), digests(b)
		for seed, sha := range da {
			if other, ok := db[seed]; ok && other != sha {
				fmt.Fprintf(stdout, "%-9s seed %d: output_sha256 %s in A, %s in B\n", w.Name, seed, sha, other)
				status = 1
			}
		}
	}
	if claim == "" {
		return status
	}
	name, wl, ok := strings.Cut(claim, "@")
	lower, known := false, false
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			lower, known = m.Better == "lower", true
		}
	}
	if !ok || !known {
		fmt.Fprintf(stderr, "bench: -claim %q: want metric@workload with an end-to-end metric\n", claim)
		return 2
	}
	wins, pairs, met := pairWins(values(setA[wl], name), values(setB[wl], name), lower)
	word := "met"
	if !met {
		word, status = "not met", 1
	}
	fmt.Fprintf(stdout, "claim %s: B wins %d of %d pairs; claim %s\n", claim, wins, pairs, word)
	return status
}

// samePeakKind reports whether two sets measured peak_rss_mb the same way:
// every run of both reset the high-water mark before each op, or none did.
func samePeakKind(a, b []runResult) bool {
	kind := func(runs []runResult) (reset, lifetime bool) {
		for _, r := range runs {
			reset = reset || r.Provenance.PeakRSSReset
			lifetime = lifetime || !r.Provenance.PeakRSSReset
		}
		return reset, lifetime
	}
	ra, la := kind(a)
	rb, lb := kind(b)
	return !(ra && la) && ra == rb && la == lb
}

// summary renders median, quartiles and sample count.
func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// digests maps each seed of a set to its runs' output digest. Runs of one
// seed and one commit always agree, since every op is checked against the
// same reference.
func digests(runs []runResult) map[int64]string {
	out := map[int64]string{}
	for _, r := range runs {
		out[r.Seed] = r.OutputSHA
	}
	return out
}
