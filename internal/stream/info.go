package stream

// Trace-file introspection without decoding: Describe, or Info on an open
// Reader, yields what the header and the chunk-index footer say — codec
// version, chunk and event counts, workload metadata — the provenance facts
// a run manifest records. Cost is O(header + index), independent of the
// event payload.

// FileInfo describes one trace file.
type FileInfo struct {
	// Version is the codec version byte of the header.
	Version int
	// Meta is the workload metadata block.
	Meta Meta
	// Bytes is the file size.
	Bytes int64
	// Chunks is the chunk count from the index.
	Chunks int
	// Events is the total event count from the index.
	Events uint64
}

// Describe reads a trace file's header and chunk index. It fails as
// OpenFile does.
func Describe(path string) (FileInfo, error) {
	r, err := OpenFile(path, Options{})
	if err != nil {
		return FileInfo{}, err
	}
	return r.Info(), r.Close()
}

// Info describes the trace the reader decodes, from the header and chunk
// index its open read.
func (r *Reader) Info() FileInfo {
	return FileInfo{Version: Version, Meta: r.meta, Bytes: r.size, Chunks: len(r.index.Chunks), Events: r.index.Events}
}
