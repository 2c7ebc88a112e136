package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsm/internal/obs"
)

// TestRunUnwritableOutput: an unwritable -o path must fail fast with a
// clear error and a non-zero exit, before any generation work.
func TestRunUnwritableOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "db2", "-scale", "0.05", "-nodes", "4",
		"-o", filepath.Join(t.TempDir(), "no", "such", "dir", "out.tsm")}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("unwritable -o exited 0\nstdout:\n%s", &stdout)
	}
	msg := stderr.String()
	if !strings.Contains(msg, "tracegen:") || !strings.Contains(msg, "not writable") {
		t.Fatalf("stderr lacks a clear writability error:\n%s", msg)
	}
	if strings.Contains(stdout.String(), "wrote") {
		t.Fatalf("stdout claims success despite the failure:\n%s", &stdout)
	}
}

// TestRunUnknownWorkload: exit 2 on a usage error.
func TestRunUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "not-a-workload"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown workload exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Fatalf("stderr lacks the unknown-workload error:\n%s", stderr.String())
	}
}

// TestRunGenerateWithMetrics drives a small generation end to end with
// -metrics and -progress: the trace file and metrics snapshot must both
// land, the snapshot must be valid JSON with consistent counters, and the
// progress lines must stay off stdout.
func TestRunGenerateWithMetrics(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "db2.tsm")
	metrics := filepath.Join(dir, "m.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "db2", "-scale", "0.05", "-nodes", "4",
		"-o", out, "-metrics", metrics, "-progress"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("generation exited %d\nstderr:\n%s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "wrote") {
		t.Fatalf("stdout lacks the wrote line:\n%s", &stdout)
	}
	if !strings.Contains(stderr.String(), "done,") {
		t.Fatalf("stderr lacks the progress summary:\n%s", &stderr)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}

	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, raw)
	}
	if snap.Counters["tracegen.events"] == 0 || snap.Counters["tracegen.accesses"] == 0 {
		t.Fatalf("metrics lack generation counters:\n%s", raw)
	}
	if snap.Counters["tracegen.wall_ns"] == 0 {
		t.Fatalf("metrics lack wall time:\n%s", raw)
	}
}

// TestRunRejectsBadSizes: node counts outside [1, 64] and negative or
// non-finite -scale/-repeat are usage errors (exit 2) caught before the
// output file is created, so no unreadable trace is ever written.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, bad := range [][]string{
		{"-nodes", "0"}, {"-nodes", "-1"}, {"-nodes", "100"},
		{"-scale", "-0.5"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
		{"-repeat", "-2"}, {"-repeat", "NaN"},
		{"-preset", "paper", "-repeat", "-2"},
	} {
		out := filepath.Join(t.TempDir(), "x.tsm")
		var stdout, stderr bytes.Buffer
		if code := run(append(bad, "-workload", "db2", "-o", out), &stdout, &stderr); code != 2 {
			t.Errorf("%v exited %d, want 2\nstderr:\n%s", bad, code, &stderr)
		}
		if !strings.Contains(stderr.String(), "tracegen: -") {
			t.Errorf("%v: stderr lacks a flag error:\n%s", bad, &stderr)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: output file exists after the usage error (stat err %v)", bad, err)
		}
	}
}
