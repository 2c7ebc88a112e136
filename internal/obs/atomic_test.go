package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFileAtomic: a successful write replaces the destination and
// leaves no temp files behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new content")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "new content" {
		t.Fatalf("content = %q", data)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileAtomicCrash simulates a writer dying mid-write (the write
// callback fails after producing partial output): the previous file must
// survive untouched and the partial temp file must be cleaned up — the
// property CI's jq checks rely on.
func TestWriteFileAtomicCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := os.WriteFile(path, []byte(`{"ok":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("simulated crash")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, `{"truncat`) // partial JSON lands in the temp file
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped simulated crash", err)
	}
	data, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("previous content clobbered: %q", data)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileAtomicNoPrevious: a failed first write leaves no destination
// file at all.
func TestWriteFileAtomicNoPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fresh.json")
	err := WriteFileAtomic(path, func(io.Writer) error {
		return fmt.Errorf("nope")
	})
	if err == nil {
		t.Fatal("failed write reported success")
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("destination exists after failed first write: %v", statErr)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileAtomicBadDir: an unwritable directory errors without creating
// anything.
func TestWriteFileAtomicBadDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out.json")
	err := WriteFileAtomic(path, func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("write into a missing directory reported success")
	}
	if !strings.Contains(err.Error(), "obs: writing") {
		t.Fatalf("error not wrapped: %v", err)
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestCheckWritable: a creatable path passes and is left in place with its
// content intact; a path under a missing directory fails before any run.
func TestCheckWritable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := CheckWritable(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checked path not left in place: %v", err)
	}
	if err := os.WriteFile(path, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CheckWritable(path); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "kept" {
		t.Fatalf("CheckWritable changed the existing content to %q", data)
	}
	err := CheckWritable(filepath.Join(dir, "missing", "out.json"))
	if err == nil || !strings.Contains(err.Error(), "output not writable") {
		t.Fatalf("error = %v, want an unwritable-output error", err)
	}
}
