package tse_test

// The column path that drives the TSE system in every production run —
// analysis.TSEConsumer sweeping stream chunks through System.RunColumns —
// checked against the per-event oracle System.Run.

import (
	"errors"
	"testing"

	"tsm/internal/analysis"
	"tsm/internal/stream"
	"tsm/internal/trace"
	"tsm/internal/tse"
)

// TestRunSourceMatchesRun: a TSEConsumer draining the trace in 7-event
// column chunks must reproduce the per-event Run result bit for bit — the
// whole-system half of the streamed-pipeline parity the facade relies on.
func TestRunSourceMatchesRun(t *testing.T) {
	cfg := tse.SmallSystemConfig()
	tr := tse.MigratoryTrace(4, 300)

	want := tse.NewSystem(cfg).Run(tr)
	c := analysis.NewTSEConsumer(cfg)
	if err := c.Run(stream.Columns(stream.TraceSource(tr), 7)); err != nil {
		t.Fatal(err)
	}
	got := c.Full
	if got.Consumptions != want.Consumptions || got.Covered != want.Covered ||
		got.BlocksFetched != want.BlocksFetched || got.Discards != want.Discards ||
		got.StreamsAllocated != want.StreamsAllocated || got.Traffic != want.Traffic ||
		got.CMOBPeakBytes != want.CMOBPeakBytes {
		t.Fatalf("column result %+v differs from Run result %+v", got, want)
	}
	for _, b := range want.StreamLengths.Buckets() {
		if got.StreamLengths.Count(b) != want.StreamLengths.Count(b) {
			t.Fatalf("stream-length bucket %d: %d vs %d", b, got.StreamLengths.Count(b), want.StreamLengths.Count(b))
		}
	}
}

// TestRunSourceReportsSourceError: a failing source must surface its error
// from TSEConsumer.Run, along with the flushed partial result.
func TestRunSourceReportsSourceError(t *testing.T) {
	cfg := tse.SmallSystemConfig()
	tr := tse.MigratoryTrace(4, 10)
	c := analysis.NewTSEConsumer(cfg)
	err := c.Run(stream.Columns(&errorSource{events: tr.Events, err: errTestSource}, 7))
	if err != errTestSource {
		t.Fatalf("err = %v, want errTestSource", err)
	}
	if c.Full.Consumptions == 0 {
		t.Fatal("partial result should include the events seen before the error")
	}
}

// errorSource yields its events and then fails with a non-EOF error.
type errorSource struct {
	events []trace.Event
	err    error
	pos    int
}

func (s *errorSource) Next() (trace.Event, error) {
	if s.pos >= len(s.events) {
		return trace.Event{}, s.err
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// errTestSource is the sentinel error used by errorSource.
var errTestSource = errors.New("tse test: source failed")
