package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeriesReady pins the sampling contract: first sample always due,
// interval crossings due, repeats and back-steps never due, final flush due
// exactly once.
func TestSeriesReady(t *testing.T) {
	ss := NewSeriesSet()
	ss.SetInterval(100)
	s := ss.Series("cov")

	if !s.Ready(5, false) {
		t.Fatal("first sample not ready")
	}
	s.Record(5, map[string]float64{"v": 1})

	if s.Ready(50, false) {
		t.Fatal("mid-interval sample ready")
	}
	if !s.Ready(105, false) {
		t.Fatal("interval crossing not ready")
	}
	s.Record(105, map[string]float64{"v": 2})

	// The terminal flush at a new seq is due even mid-interval…
	if !s.Ready(110, true) {
		t.Fatal("final flush not ready")
	}
	s.Record(110, map[string]float64{"v": 3})
	// …but a second flush at the same seq (double terminal pump) is not.
	if s.Ready(110, true) {
		t.Fatal("duplicate final flush ready")
	}
	if s.Ready(90, true) {
		t.Fatal("back-step ready")
	}

	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestSeriesRingEviction: overflowing the ring keeps the newest points and
// counts the evictions.
func TestSeriesRingEviction(t *testing.T) {
	s := newSeries(0)
	const n = DefaultSeriesCapacity + 6
	for i := 1; i <= n; i++ {
		s.Record(uint64(i), map[string]float64{"i": float64(i)})
	}
	if got := s.Len(); got != DefaultSeriesCapacity {
		t.Fatalf("Len = %d, want %d", got, DefaultSeriesCapacity)
	}
	if got := s.Evicted(); got != 6 {
		t.Fatalf("Evicted = %d, want 6", got)
	}
	pts := s.Points()
	for i, p := range pts {
		if want := uint64(i + 7); p.Seq != want {
			t.Fatalf("point %d seq = %d, want %d", i, p.Seq, want)
		}
	}
}

// TestSeriesSetIntervals: SetInterval reaches existing series, EnsureInterval
// only fills an unset one.
func TestSeriesSetIntervals(t *testing.T) {
	ss := NewSeriesSet()
	s := ss.Series("a")
	ss.SetInterval(50)
	s.Record(1, nil)
	if s.Ready(40, false) {
		t.Fatal("SetInterval did not reach the existing series")
	}
	if !s.Ready(51, false) {
		t.Fatal("existing series ignores the new interval")
	}

	ss.EnsureInterval(999)
	if got := ss.Interval(); got != 50 {
		t.Fatalf("EnsureInterval overrode an explicit interval: %d", got)
	}
	ss2 := NewSeriesSet()
	ss2.EnsureInterval(999)
	if got := ss2.Interval(); got != 999 {
		t.Fatalf("EnsureInterval on unset = %d, want 999", got)
	}
}

// TestSeriesSnapshotDeterminism: equal state encodes to identical bytes, and
// the JSON round-trips.
func TestSeriesSnapshotDeterminism(t *testing.T) {
	build := func(order []string) *SeriesSet {
		ss := NewSeriesSet()
		ss.SetInterval(10)
		for _, name := range order {
			s := ss.Series(name)
			s.Record(10, map[string]float64{"b": 2, "a": 1})
			s.Record(20, map[string]float64{"a": 3, "b": 4})
		}
		return ss
	}
	marshal := func(ss *SeriesSet) []byte {
		var buf bytes.Buffer
		if err := ss.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ja := marshal(build([]string{"x", "y", "z"}))
	jb := marshal(build([]string{"z", "x", "y"}))
	if !bytes.Equal(ja, jb) {
		t.Fatalf("snapshots of equal state differ:\n%s\n--\n%s", ja, jb)
	}
	var snap SeriesSnapshot
	if err := json.Unmarshal(ja, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Interval != 10 || len(snap.Series) != 3 {
		t.Fatalf("decoded snapshot = %+v", snap)
	}
	if pts := snap.Series["y"].Points; len(pts) != 2 || pts[1].Values["b"] != 4 {
		t.Fatalf("series y points = %+v", pts)
	}
}

// TestSeriesWriteFile: the set lands on disk as valid JSON via the atomic
// writer.
func TestSeriesWriteFile(t *testing.T) {
	ss := NewSeriesSet()
	ss.Series("c").Record(7, map[string]float64{"v": 1})
	path := filepath.Join(t.TempDir(), "series.json")
	if err := ss.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap SeriesSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("written file is not valid JSON: %v", err)
	}
	if len(snap.Series["c"].Points) != 1 {
		t.Fatalf("decoded = %+v", snap)
	}
}

// TestNilSeriesIsNoop: the nil SeriesSet and its nil Series are safe and
// inert, and never report ready.
func TestNilSeriesIsNoop(t *testing.T) {
	var ss *SeriesSet
	ss.SetInterval(10)
	ss.EnsureInterval(10)
	if ss.Interval() != 0 {
		t.Fatal("nil set has an interval")
	}
	s := ss.Series("x")
	if s != nil {
		t.Fatal("nil set handed out a non-nil series")
	}
	if s.Ready(1, true) {
		t.Fatal("nil series is ready")
	}
	s.Record(1, map[string]float64{"v": 1})
	if s.Len() != 0 || s.Evicted() != 0 || s.Points() != nil {
		t.Fatal("nil series accumulated")
	}
	var buf bytes.Buffer
	if err := ss.WriteJSON(&buf); err != nil {
		t.Fatalf("nil set WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"series"`) {
		t.Fatalf("nil set snapshot malformed: %s", buf.String())
	}
}

// TestNilSeriesAllocs pins the disabled sampling path at zero allocations:
// the per-chunk Ready probe on a nil series must be a nil check only. (Record
// is excluded — an enabled caller only builds its values map after Ready.)
func TestNilSeriesAllocs(t *testing.T) {
	var ss *SeriesSet
	s := ss.Series("x")
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Ready(1, false) {
			t.Fatal("nil series ready")
		}
		if s.Ready(1, true) {
			t.Fatal("nil series ready (final)")
		}
	})
	if allocs != 0 {
		t.Fatalf("nil series Ready allocates %v allocs/op, want 0", allocs)
	}
}
