package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerSpans covers span recording, args, lanes and the chrome export
// structure end to end.
func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.NameLane(0, "producer")
	tr.NameLane(1, "consumer LA=8")

	sp := tr.Begin("decode", "pipeline", 0)
	sp.Arg("events", 1024).Arg("source", "unit-test")
	time.Sleep(time.Millisecond)
	if sp.Elapsed() <= 0 {
		t.Fatal("Elapsed did not advance")
	}
	sp.End()
	tr.Record(Span{Name: "cell", Cat: "consumer", Lane: 1, Start: time.Millisecond, Dur: 2 * time.Millisecond})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	if spans[0].Name != "decode" || spans[0].Dur <= 0 {
		t.Fatalf("bad first span: %+v", spans[0])
	}
	if spans[0].Args["events"] != 1024 {
		t.Fatalf("span args = %v", spans[0].Args)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if decoded.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", decoded.DisplayTimeUnit)
	}
	// 2 lane metadata events + 2 spans.
	if len(decoded.TraceEvents) != 4 {
		t.Fatalf("chrome trace has %d events, want 4:\n%s", len(decoded.TraceEvents), buf.Bytes())
	}
	var metas, complete int
	for _, e := range decoded.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
		case "X":
			complete++
			if e.Dur <= 0 {
				t.Fatalf("complete event with non-positive dur: %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if metas != 2 || complete != 2 {
		t.Fatalf("metas=%d complete=%d, want 2/2", metas, complete)
	}
}

// TestTracerSpanLimit: spans over the limit are dropped, counted, and
// surfaced in the exported trace instead of growing without bound.
func TestTracerSpanLimit(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < DefaultSpanLimit; i++ {
		tr.Record(Span{Name: "s", Cat: "t"})
	}
	for i := 0; i < 7; i++ {
		tr.Begin("s", "t", 0).End()
	}
	if got := len(tr.Spans()); got != DefaultSpanLimit {
		t.Fatalf("retained %d spans, want %d", got, DefaultSpanLimit)
	}
	if got := tr.Dropped(); got != 7 {
		t.Fatalf("dropped = %d, want 7", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spans_dropped_over_limit") {
		t.Fatalf("exported trace does not mention dropped spans:\n%s", buf.Bytes())
	}
}

// TestTracerConcurrent exercises concurrent Begin/End under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Begin("s", "t", w).Arg("i", i).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 1600 {
		t.Fatalf("recorded %d spans, want 1600", got)
	}
}

// TestNilTracerIsNoop: the nil tracer accepts the full API and exports a
// valid empty trace.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.NameLane(0, "x")
	sp := tr.Begin("a", "b", 0)
	sp.Arg("k", "v")
	if sp.Elapsed() != 0 {
		t.Fatal("nil span elapsed")
	}
	sp.End()
	tr.Record(Span{Name: "x"})
	if tr.Spans() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("nil tracer chrome export invalid: %v", err)
	}
}

// TestProgress drives the meter with a fast interval and checks the lines
// and final summary reach the writer.
func TestProgress(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	var buf syncBuffer
	p := StartProgress(ProgressConfig{
		W:        &buf,
		Label:    "unit",
		Events:   c,
		Interval: 5 * time.Millisecond,
		Fraction: func() float64 { return 0.5 },
	})
	c.Add(1000)
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "unit:") || !strings.Contains(out, "events/s") {
		t.Fatalf("progress output missing rate line:\n%s", out)
	}
	if !strings.Contains(out, "eta") {
		t.Fatalf("progress output missing eta with known fraction:\n%s", out)
	}
	if !strings.Contains(out, "done, 1,000 events") {
		t.Fatalf("progress output missing final summary:\n%s", out)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the progress goroutine writes
// while the test reads).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGroupDigits pins the thousands-separator helper.
func TestGroupDigits(t *testing.T) {
	cases := map[uint64]string{0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567"}
	for in, want := range cases {
		if got := groupDigits(in); got != want {
			t.Fatalf("groupDigits(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestRatePerSec pins the division guard: a zero/negative elapsed or an
// astronomic rate must come out 0, never NaN/+Inf punched through uint64
// conversion (whose result is platform-defined).
func TestRatePerSec(t *testing.T) {
	cases := []struct {
		n       uint64
		elapsed time.Duration
		want    uint64
	}{
		{1000, time.Second, 1000},
		{1000, 2 * time.Second, 500},
		{1000, 0, 0},
		{1000, -time.Second, 0},
		{0, 0, 0},
		{^uint64(0), 1, 0}, // ~1.8e28 events/s overflows uint64: report 0, not garbage
	}
	for _, c := range cases {
		if got := ratePerSec(c.n, c.elapsed); got != c.want {
			t.Fatalf("ratePerSec(%d, %v) = %d, want %d", c.n, c.elapsed, got, c.want)
		}
	}
}

// TestProgressImmediateStop reproduces the divide-by-~zero summary: Stop
// immediately after Start used to compute total/elapsed with elapsed≈0,
// printing a nonsense rate (uint64(+Inf) is platform-defined). The summary
// must still print, with a sane (possibly zero) rate.
func TestProgressImmediateStop(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Add(42)
	var buf syncBuffer
	p := StartProgress(ProgressConfig{W: &buf, Label: "flash", Events: c, Interval: time.Hour})
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "flash: done, 42 events in") {
		t.Fatalf("summary line missing:\n%s", out)
	}
	// The rate is whole digits with separators — never "NaN", "+Inf", or a
	// 20-digit conversion artifact like 9,223,372,036,854,775,808.
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") || strings.Contains(out, "9,223,372,036,854,775,808") {
		t.Fatalf("summary rate not guarded:\n%s", out)
	}
}
