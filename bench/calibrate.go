package main

// Host-speed calibration. The benchmark shares its host, and neighbours on
// the same physical cores slow every instruction for minutes at a time:
// CPU time per event moves as much as wall time, and a whole run can fall
// inside one slow phase, so no statistic over a run's own ops removes it.
// Instead, fixed kernels that belong to the benchmark, not to the program
// under test, are timed right after every op, and each op's time is scaled
// by that sample to a reference host speed. The kernels are timed in thread
// CPU time on a locked OS thread and allocate nothing. Each sample first
// finishes the garbage collection the op left behind, outside the op's
// timing: otherwise the collector would mark and sweep on the other core
// while the kernels run, slow them through the shared cache, and so scale an
// op that leaves more garbage down further.

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// referenceKernelMs is the calibration sample of the reference host: a
// 2-core x86-64 VM with Go 1.24.0, at its quiet speed. A run whose samples
// read higher ran on a slower host, and its time metrics are scaled down by
// the ratio.
const referenceKernelMs = 11

// clockThreadCPU is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPU = 3

// threadCPU returns the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// aluKernel is a dependent chain of multiply, add and shift: core speed.
func aluKernel() uint64 {
	x := uint64(1)
	for i := 0; i < 5_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	return x
}

// walkTable is 4 MiB: twice a core's L2, so the walk runs from the shared
// last-level cache that neighbours also use.
var walkTable = func() []uint32 {
	t := make([]uint32, 1<<20)
	for i := range t {
		t[i] = uint32((uint64(i)*2654435761 + 12345) % uint64(len(t)))
	}
	return t
}()

// walkKernel is a dependent random walk through walkTable: cache and
// memory speed.
func walkKernel() uint64 {
	j := uint32(1)
	for i := 0; i < 250_000; i++ {
		j = walkTable[j] ^ uint32(i&7)
		if int(j) >= len(walkTable) {
			j = 0
		}
	}
	return uint64(j)
}

var kernelSink uint64

// kernelSample times both kernels and returns their times in ms.
func kernelSample() (alu, walk float64) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t := threadCPU()
	kernelSink += aluKernel()
	alu = (threadCPU() - t).Seconds() * 1e3
	t = threadCPU()
	kernelSink += walkKernel()
	walk = (threadCPU() - t).Seconds() * 1e3
	return alu, walk
}

// calibrator collects kernel samples over a run.
type calibrator struct {
	Alu  []float64 `json:"alu_ms"`
	Walk []float64 `json:"walk_ms"`
}

func (c *calibrator) sample() {
	runtime.GC() // returns once marking and sweeping are done
	a, w := kernelSample()
	c.Alu, c.Walk = append(c.Alu, a), append(c.Walk, w)
}

// slowdowns returns, per sample, how much slower than the reference host
// the host ran: the geometric mean of the two kernel times over the
// reference.
func (c *calibrator) slowdowns() []float64 {
	out := make([]float64, len(c.Alu))
	for i := range out {
		out[i] = math.Sqrt(c.Alu[i]*c.Walk[i]) / referenceKernelMs
	}
	return out
}

// scaled divides each value by the slowdown measured right after it.
func scaled(values, slowdowns []float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v / slowdowns[i]
	}
	return out
}
