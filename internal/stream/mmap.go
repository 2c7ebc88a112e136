// Memory-mapped trace files. The chunk index makes files seekable and the
// Reader reads chunks via ReadAt; an mmap'd view drops the per-chunk read
// syscall and copy entirely — the decoder parses straight out of the mapped
// pages through the Region fast path (soa.go).
// The mapping is platform-gated (mmap_linux.go); everywhere else — and on
// any mapping failure — Mmap degrades to plain ReadAt over the open file,
// producing identical output.
package stream

import (
	"fmt"
	"io"
	"os"
)

// Mmap is a read-only random-access view of a trace file, memory-mapped
// when the platform supports it and backed by ReadAt otherwise. It
// implements io.ReaderAt (and the decoder's zero-copy Region refinement)
// and must be Closed to release the mapping and the file.
type Mmap struct {
	f    *os.File
	data []byte // the mapping; nil when falling back to ReadAt
	size int64
}

// OpenFileMmap opens path and maps it into memory with a
// madvise(SEQUENTIAL|WILLNEED) access policy. When mapping is unsupported
// (non-Linux builds) or fails (exotic filesystems, zero-length files), the
// returned Mmap silently serves reads via ReadAt instead — mmap is a
// performance hint, not a correctness switch.
func OpenFileMmap(path string) (*Mmap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &Mmap{f: f, size: st.Size()}
	if m.size > 0 && m.size == int64(int(m.size)) {
		if data, err := mapFile(f, m.size); err == nil {
			m.data = data
		}
	}
	return m, nil
}

// Size returns the file size in bytes.
func (m *Mmap) Size() int64 { return m.size }

// Mapped reports whether reads are served from a memory mapping (true) or
// the ReadAt fallback (false).
func (m *Mmap) Mapped() bool { return m.data != nil }

// ReadAt implements io.ReaderAt with the exact semantics of a file read:
// a short read past the end returns the bytes read and io.EOF.
func (m *Mmap) ReadAt(p []byte, off int64) (int, error) {
	if m.data == nil {
		return m.f.ReadAt(p, off)
	}
	if off < 0 {
		return 0, fmt.Errorf("stream: mmap read at negative offset %d", off)
	}
	if off >= m.size {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Region returns a zero-copy view of bytes [off, off+n), or false when the
// range is out of bounds or the mapping is unavailable. The view is valid
// until Close.
func (m *Mmap) Region(off, n int64) ([]byte, bool) {
	if m.data == nil || off < 0 || n < 0 || off > m.size || n > m.size-off {
		return nil, false
	}
	return m.data[off : off+n : off+n], true
}

// shrunk reports whether the mapped file is now shorter than the mapping.
// The decoder turns a fault on a page past the new end into ErrTruncated,
// but the page holding the new end reads as zeros instead of faulting, so
// the Reader checks this once at end of stream.
func (m *Mmap) shrunk() bool {
	if m.data == nil {
		return false
	}
	st, err := m.f.Stat()
	return err == nil && st.Size() < m.size
}

// Close unmaps the file and closes it. The mapping (and any Region views)
// must not be used after Close.
func (m *Mmap) Close() error {
	var err error
	if m.data != nil {
		err = unmapFile(m.data)
		m.data = nil
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
