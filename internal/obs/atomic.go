package obs

// Atomic JSON artifact writes. The metrics/trace/series/manifest files are
// consumed by CI's jq checks and the weekly cron's artifact checks, where a
// half-written file is worse than a missing one: a check reads garbage and
// the signal silently disappears. Every writer in this package (and the
// facade's manifest writer) therefore goes through WriteFileAtomic: the
// content lands in a temp file in the target directory and is renamed over
// the destination only once fully written, so a killed run leaves either the
// previous file or the complete new one — never truncated JSON.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// CheckWritable verifies an output path can be created (or opened for
// writing) now, so a typo'd path fails before a run instead of after it. The
// file is left in place for the run's WriteFileAtomic to replace.
func CheckWritable(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("output not writable: %w", err)
	}
	return f.Close()
}

// WriteFileAtomic writes the output of write to path atomically: the
// content goes to a temp file in path's directory, which is renamed over
// path only after write and Close succeed. On any failure the temp file is
// removed and the previous content of path (if any) is left untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("obs: writing %s: %w", path, err)
	}
	return nil
}
