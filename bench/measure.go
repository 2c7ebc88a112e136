package main

// Process cost meters (CPU time, peak resident memory) and the order
// statistics every reported number goes through.

import (
	"bufio"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// releaseHeap collects garbage and returns freed heap to the OS, so the
// measured phase does not start with set-up's memory.
func releaseHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so peakRSS reports the peak of what runs next.
// Value 5 resets only that counter, without walking page tables. Where the
// reset fails, the high-water mark covers the whole process lifetime, set-up
// included: the caller records that, so runs of the two kinds are not
// compared.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in bytes: VmHWM from
// /proc/self/status, or getrusage's lifetime maximum where /proc is absent.
func peakRSS() (uint64, error) {
	if kb, err := statusKB("VmHWM"); err == nil {
		return kb * 1024, nil
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return uint64(ru.Maxrss) * 1024, nil // Linux reports kilobytes
}

// statusKB reads one "Key:   N kB" line of /proc/self/status.
func statusKB(key string) (uint64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		return strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("bench: " + key + " not in /proc/self/status")
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// invert returns the reciprocals of xs.
func invert(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 1 / x
	}
	return out
}

// median is the middle value (mean of the two middle values for an even
// count), as Python's statistics.median computes it; NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so the
// spreads printed here match the ones a Python check computes from the same
// values. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it — the order statistic with exactly ten larger samples —
// and that percentile. With ten samples or fewer no percentile qualifies and
// ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}
