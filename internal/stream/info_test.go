package stream

import (
	"errors"
	"os"
	"testing"
)

// TestDescribe: a trace file reports version, meta, chunk and event
// counts, all without decoding the payload.
func TestDescribe(t *testing.T) {
	tr := randomTrace(10_000, 99)
	meta := Meta{Workload: "db2", Nodes: 16, Scale: 0.25, Seed: 7, Repeat: 2}
	path := t.TempDir() + "/t.tsm"
	if _, err := WriteFile(path, meta, TraceSource(tr)); err != nil {
		t.Fatal(err)
	}
	info, err := Describe(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version {
		t.Fatalf("info = %+v, want version %d", info, Version)
	}
	if info.Meta != meta {
		t.Fatalf("meta = %+v, want %+v", info.Meta, meta)
	}
	if info.Events != uint64(tr.Len()) {
		t.Fatalf("events = %d, want %d", info.Events, tr.Len())
	}
	if info.Chunks <= 0 {
		t.Fatalf("chunks = %d, want > 0", info.Chunks)
	}
	st, _ := os.Stat(path)
	if info.Bytes != st.Size() {
		t.Fatalf("bytes = %d, want %d", info.Bytes, st.Size())
	}
}

// TestDescribeUnindexed: version 1/2 files carry no chunk index; Describe
// of either fails with a wrapped ErrVersion rather than reporting a file
// without counts.
func TestDescribeUnindexed(t *testing.T) {
	for name, old := range oldVersionFiles(t) {
		if _, err := Describe(writeTemp(t, name+".tsm", old)); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: Describe err = %v, want ErrVersion", name, err)
		}
	}
}

// TestDescribeErrors: missing files and foreign bytes fail cleanly.
func TestDescribeErrors(t *testing.T) {
	if _, err := Describe(t.TempDir() + "/missing.tsm"); err == nil {
		t.Fatal("missing file did not error")
	}
	path := t.TempDir() + "/junk.tsm"
	if err := os.WriteFile(path, []byte("not a trace file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Describe(path); err == nil {
		t.Fatal("foreign bytes did not error")
	}
}
