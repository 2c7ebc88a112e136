package obs

// The progress meter: periodic one-line status reports for long runs (the
// paper-preset traces cost minutes of CPU and previously ran silent). It
// watches a Counter — typically pipeline.events_decoded or the tracegen
// event count — and prints events/sec each interval; given a fraction
// callback (e.g. chunks consumed / chunks selected from stream.Reader) it adds
// percent complete and an ETA. Lines go to the configured writer (stderr in
// the CLIs) so stdout reports and goldens stay byte-identical.

import (
	"fmt"
	"io"
	"os"
	"time"
)

// DefaultProgressInterval is the default reporting period.
const DefaultProgressInterval = 2 * time.Second

// ProgressConfig configures StartProgress.
type ProgressConfig struct {
	// W receives the progress lines (default os.Stderr).
	W io.Writer
	// Label prefixes every line ("replay db2.tsm").
	Label string
	// Events is the counter to watch (required; a nil counter reports 0).
	Events *Counter
	// Fraction optionally reports completion in [0, 1] for percent + ETA.
	Fraction func() float64
	// Interval is the reporting period (default DefaultProgressInterval).
	Interval time.Duration
}

// Progress periodically prints throughput (and, when a completion fraction
// is known, ETA) for a running stage. The nil Progress is a valid no-op, so
// callers can unconditionally defer Stop.
type Progress struct {
	cfg   ProgressConfig
	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

// StartProgress launches the reporting goroutine and returns its handle.
// Stop it to end reporting and print the final summary line.
func StartProgress(cfg ProgressConfig) *Progress {
	if cfg.W == nil {
		cfg.W = os.Stderr
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultProgressInterval
	}
	p := &Progress{
		cfg:   cfg,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.loop()
	return p
}

// loop emits one line per interval until Stop.
func (p *Progress) loop() {
	defer close(p.done)
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	var last uint64
	lastT := p.start
	for {
		select {
		case <-p.stop:
			return
		case now := <-tick.C:
			cur := p.cfg.Events.Value()
			rate := ratePerSec(cur-last, now.Sub(lastT))
			last, lastT = cur, now
			line := fmt.Sprintf("%s: %s events, %s events/s", p.cfg.Label, groupDigits(cur), groupDigits(rate))
			if p.cfg.Fraction != nil {
				if f := p.cfg.Fraction(); f > 0 {
					if f > 1 {
						f = 1
					}
					elapsed := now.Sub(p.start)
					eta := time.Duration(float64(elapsed) * (1 - f) / f).Round(time.Second)
					line += fmt.Sprintf(", %.1f%% eta %s", 100*f, eta)
				}
			}
			fmt.Fprintln(p.cfg.W, line)
		}
	}
}

// Stop ends reporting and prints a final summary line. Safe on the nil
// Progress; call at most once per StartProgress.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	elapsed := time.Since(p.start)
	total := p.cfg.Events.Value()
	fmt.Fprintf(p.cfg.W, "%s: done, %s events in %s (%s events/s)\n",
		p.cfg.Label, groupDigits(total), elapsed.Round(time.Millisecond), groupDigits(ratePerSec(total, elapsed)))
}

// ratePerSec computes n/elapsed as a whole per-second rate. A zero or
// negative elapsed (Stop right after Start, or a clock step) would divide by
// ~0 and feed NaN or +Inf into uint64 conversion, which is platform-defined;
// report 0 instead of a garbage rate.
func ratePerSec(n uint64, elapsed time.Duration) uint64 {
	secs := elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	rate := float64(n) / secs
	if rate != rate || rate > float64(1<<63) { // NaN or out of uint64 range
		return 0
	}
	return uint64(rate)
}

// groupDigits renders n with thousands separators (1234567 → "1,234,567").
func groupDigits(n uint64) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 {
		return s
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
