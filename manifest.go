package tsm

// Run manifests: a deterministic JSON provenance record for every file
// replay or sweep. A BENCH number or a metrics snapshot is only as useful as
// the certainty about what produced it — which trace file (by content hash,
// not path), which codec version, which replay and TSE settings, which tool
// version — so the facade can emit exactly that alongside the results. The
// record's SHAPE is deterministic (fixed field order, sorted metric names);
// wall times naturally vary run to run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"tsm/internal/obs"
	"tsm/internal/stream"
)

// ToolVersion identifies this build of the tsm engine in manifests and CLI
// output. Bump when the evaluation semantics or output formats change.
const ToolVersion = "0.8.0"

// TraceProvenance identifies the input trace by content, not just path.
type TraceProvenance struct {
	// Path is the trace file as given to the entry point.
	Path string `json:"path"`
	// SHA256 is the hex content hash of the file (computed at finalize, so
	// it reflects the bytes that were actually replayed).
	SHA256 string `json:"sha256,omitempty"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// CodecVersion is the stream codec version byte.
	CodecVersion int `json:"codec_version"`
	// Chunks and Events come from the chunk index.
	Chunks int    `json:"chunks,omitempty"`
	Events uint64 `json:"events,omitempty"`
	// Workload metadata embedded in the trace header.
	Workload string  `json:"workload,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Scale    float64 `json:"scale,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Repeat   float64 `json:"repeat,omitempty"`
}

// ManifestStage is one timed stage of the run.
type ManifestStage struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
}

// ReplaySettings records the replay-side configuration of the run.
type ReplaySettings struct {
	// Op is the entry point ("replay-tse", "replay-all", "sweep").
	Op string `json:"op"`
	// Sweep is the sweep name for sweep runs.
	Sweep string `json:"sweep,omitempty"`
	// DecodeWorkers/From/To/Mmap mirror ReplayConfig.
	DecodeWorkers int    `json:"decode_workers,omitempty"`
	From          uint64 `json:"from,omitempty"`
	To            uint64 `json:"to,omitempty"`
	Mmap          bool   `json:"mmap,omitempty"`
}

// Manifest is the JSON shape of a run manifest.
type Manifest struct {
	// Tool and Version identify the producer.
	Tool    string `json:"tool"`
	Version string `json:"version"`
	// Command is the invoking command line, when the caller recorded one.
	Command []string `json:"command,omitempty"`
	// Trace identifies the input.
	Trace TraceProvenance `json:"trace"`
	// Replay records the run configuration.
	Replay ReplaySettings `json:"replay"`
	// Stages are the timed stages in execution order.
	Stages []ManifestStage `json:"stages"`
	// Metrics is the final engine metrics snapshot, when metrics were
	// attached to the run.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// RunManifest collects one run's provenance record. Create with
// NewRunManifest, attach via Instrumentation.Manifest, write with
// WriteJSON/WriteFile after the run returns. The nil *RunManifest is a valid
// no-op, like every other attachment. Safe for concurrent use.
type RunManifest struct {
	mu sync.Mutex
	m  Manifest
}

// NewRunManifest returns an empty manifest recorder.
func NewRunManifest() *RunManifest {
	return &RunManifest{m: Manifest{Tool: "tsm", Version: ToolVersion}}
}

// SetCommand records the invoking command line (e.g. os.Args). Nil-safe.
func (rm *RunManifest) SetCommand(args []string) {
	if rm == nil {
		return
	}
	rm.mu.Lock()
	rm.m.Command = append([]string(nil), args...)
	rm.mu.Unlock()
}

// begin records the run configuration and the input's header-level
// provenance from the opened reader. A nil reader (the open failed) leaves
// the trace record at path+op only; the caller reports the open's error.
func (rm *RunManifest) begin(op, path string, rc ReplayConfig, sweep string, r *stream.Reader) {
	if rm == nil {
		return
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.m.Replay = ReplaySettings{
		Op:            op,
		Sweep:         sweep,
		DecodeWorkers: rc.DecodeWorkers,
		From:          rc.From,
		To:            rc.To,
		Mmap:          rc.Mmap,
	}
	rm.m.Trace = TraceProvenance{Path: path}
	if r == nil {
		return
	}
	info := r.Info()
	rm.m.Trace = TraceProvenance{
		Path:         path,
		Bytes:        info.Bytes,
		CodecVersion: info.Version,
		Chunks:       info.Chunks,
		Events:       info.Events,
		Workload:     info.Meta.Workload,
		Nodes:        info.Meta.Nodes,
		Scale:        info.Meta.Scale,
		Seed:         info.Meta.Seed,
		Repeat:       info.Meta.Repeat,
	}
}

// stage starts a timed stage; the returned func records its wall time.
// Nil-safe: on the nil recorder the returned func is a no-op.
func (rm *RunManifest) stage(name string) func() {
	if rm == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		rm.mu.Lock()
		rm.m.Stages = append(rm.m.Stages, ManifestStage{Name: name, WallNs: d.Nanoseconds()})
		rm.mu.Unlock()
	}
}

// finalize hashes the input file (timed as the "hash" stage) and attaches
// the final metrics snapshot. Called by the facade after the run completes.
func (rm *RunManifest) finalize(m *Metrics) {
	if rm == nil {
		return
	}
	rm.mu.Lock()
	path := rm.m.Trace.Path
	rm.mu.Unlock()
	var sum string
	done := rm.stage("hash")
	if path != "" {
		if h, err := hashFile(path); err == nil {
			sum = h
		}
	}
	done()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.m.Trace.SHA256 = sum
	if m != nil {
		snap := m.Snapshot()
		rm.m.Metrics = &snap
	}
}

// hashFile returns the hex SHA-256 of a file's content.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Snapshot returns a copy of the manifest's current state.
func (rm *RunManifest) Snapshot() Manifest {
	if rm == nil {
		return Manifest{}
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	m := rm.m
	m.Command = append([]string(nil), rm.m.Command...)
	m.Stages = append([]ManifestStage(nil), rm.m.Stages...)
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (rm *RunManifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rm.Snapshot())
}

// WriteFile writes the manifest as indented JSON to path, atomically (see
// obs.WriteFileAtomic): a killed run leaves the previous file or the
// complete new one, never truncated JSON.
func (rm *RunManifest) WriteFile(path string) error {
	return obs.WriteFileAtomic(path, rm.WriteJSON)
}
