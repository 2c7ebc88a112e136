package tsm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsm/internal/workload"
)

// The facade half of the golden-file regression harness: one pinned TSE
// Report per workload (coverage, discards, timing-model speedup with CI),
// produced through BOTH pipelines — the in-memory path and the streamed
// file-replay path — which must agree byte for byte before being compared
// to the golden. Regenerate after an intentional change with:
//
//	go test -run TestGoldenReports -update .
var updateReports = flag.Bool("update", false, "rewrite the golden files with the current outputs")

func TestGoldenReports(t *testing.T) {
	opts := Options{Nodes: 4, Scale: 0.05, Seed: 9}
	dir := t.TempDir()
	var b strings.Builder
	fmt.Fprintf(&b, "# per-workload TSE reports, nodes=%d scale=%g seed=%d\n", opts.Nodes, opts.Scale, opts.Seed)
	for _, name := range workload.Names() {
		tr, gen, err := GenerateTrace(name, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := EvaluateTSE(tr, gen, opts)
		if err != nil {
			t.Fatal(err)
		}

		// The streamed file replay must agree with the in-memory pipeline
		// before either is compared against the pinned numbers.
		path := dir + "/" + name + ".tsm"
		if err := SaveTrace(path, tr, gen, opts); err != nil {
			t.Fatal(err)
		}
		streamed, err := replayTSE(path)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != rep {
			t.Fatalf("%s: streamed report %+v != in-memory report %+v", name, streamed, rep)
		}

		fmt.Fprintf(&b, "%-9s %s\n", name, rep)
	}
	got := b.String()

	golden := filepath.Join("testdata", "reports.golden")
	if *updateReports {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenReports -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("per-workload reports drifted from the pinned golden.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intentional, regenerate with -update and review the diff.", got, want)
	}
}
