// Package config collects the system and application parameters of the
// paper's Tables 1 and 2 in one place, together with the latency derivations
// (nanoseconds to cycles at the 4 GHz core clock) used by the timing model.
// Table 1's 2D torus is described here too: its dimensions, hop latency and
// peak bisection bandwidth, the average routing distance behind the 3-hop
// latency, and the bisection-bandwidth conversion of Figure 11.
package config

import (
	"fmt"

	"tsm/internal/mem"
	"tsm/internal/workload"
)

// SystemConfig is the Table 1 machine description.
type SystemConfig struct {
	// Nodes is the number of processing nodes (16).
	Nodes int
	// ClockGHz is the processor clock (4 GHz).
	ClockGHz float64
	// L1 and L2 are the cache geometries.
	L1, L2 Cache
	// L1LatencyCycles and L2LatencyCycles are load-to-use latencies.
	L1LatencyCycles, L2LatencyCycles uint64
	// L2MSHRs bounds outstanding misses per node (32); Section 5.6 caps
	// the ocean lookahead with it.
	L2MSHRs int
	// MemoryLatencyNs is the DRAM access latency (60 ns).
	MemoryLatencyNs float64
	// Torus is the interconnect description.
	Torus Torus
	// ROBEntries, a processor-side limit, bounds how far the core can run
	// ahead (256).
	ROBEntries int
	// Geometry is the coherence-unit geometry (64-byte blocks).
	Geometry mem.Geometry
}

// Cache is the geometry of one level of a node's cache hierarchy, as Table 1
// lists it. It only describes the machine: the coherence engine classifies
// with infinite private caches, and the timing model charges the L2 latency.
type Cache struct {
	// Name labels the level ("L1D", "L2") in error messages.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// BlockSize is the line size in bytes.
	BlockSize int
}

// Validate reports whether the geometry is usable: positive sizes, and
// power-of-two block size and set count.
func (c Cache) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockSize <= 0 {
		return fmt.Errorf("cache %q: all sizes must be positive (%+v)", c.Name, c)
	}
	if c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %q: block size %d not a power of two", c.Name, c.BlockSize)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockSize)
	if sets <= 0 {
		return fmt.Errorf("cache %q: capacity %d too small for %d ways of %d-byte blocks",
			c.Name, c.SizeBytes, c.Ways, c.BlockSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Torus is Table 1's 2D torus interconnect (4x4, 25 ns per hop, 128 GB/s
// peak bisection bandwidth) with dimension-order routing.
type Torus struct {
	// Width and Height are the torus dimensions (4x4 in the paper).
	Width, Height int
	// HopLatencyCycles is the per-hop latency in processor cycles.
	// The paper's 25 ns per hop at 4 GHz is 100 cycles.
	HopLatencyCycles uint64
	// PeakBisectionGBs is the peak bisection bandwidth in GB/s (128 in
	// the paper).
	PeakBisectionGBs float64
}

// Validate reports whether the torus is usable.
func (t Torus) Validate() error {
	if t.Width <= 0 || t.Height <= 0 {
		return fmt.Errorf("config: torus dimensions must be positive, got %dx%d", t.Width, t.Height)
	}
	if t.HopLatencyCycles == 0 {
		return fmt.Errorf("config: torus hop latency must be positive")
	}
	return nil
}

// hops returns the dimension-order routing distance between two nodes,
// taking the shorter way around each ring.
func (t Torus) hops(from, to mem.NodeID) int {
	return ringDistance(int(from)%t.Width, int(to)%t.Width, t.Width) +
		ringDistance(int(from)/t.Width, int(to)/t.Width, t.Height)
}

func ringDistance(a, b, size int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if wrap := size - d; wrap < d {
		return wrap
	}
	return d
}

// averageHops returns the mean routing distance over all ordered pairs of
// distinct nodes, the distance the latency derivations charge per hop.
func (t Torus) averageHops() float64 {
	n := t.Width * t.Height
	if n <= 1 {
		return 0
	}
	var total, pairs int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			total += t.hops(mem.NodeID(i), mem.NodeID(j))
			pairs++
		}
	}
	return float64(total) / float64(pairs)
}

// bisectionFraction is the share of injected bytes assumed to cross the
// torus bisection: the standard approximation for a symmetric torus under
// uniform traffic is half.
const bisectionFraction = 0.5

// BandwidthGBs converts a byte count accumulated over a number of cycles at
// the given clock rate (GHz) into GB/s of bisection bandwidth demand.
func BandwidthGBs(bytes uint64, cycles uint64, clockGHz float64) float64 {
	if cycles == 0 {
		return 0
	}
	seconds := float64(cycles) / (clockGHz * 1e9)
	return float64(bytes) * bisectionFraction / seconds / 1e9
}

// DefaultSystem returns the Table 1 configuration.
func DefaultSystem() SystemConfig {
	return SystemConfig{
		Nodes:    16,
		ClockGHz: 4.0,
		L1: Cache{
			Name: "L1D", SizeBytes: 64 * 1024, Ways: 2, BlockSize: mem.DefaultBlockSize,
		},
		L2: Cache{
			Name: "L2", SizeBytes: 8 << 20, Ways: 8, BlockSize: mem.DefaultBlockSize,
		},
		L1LatencyCycles: 2,
		L2LatencyCycles: 25,
		L2MSHRs:         32,
		MemoryLatencyNs: 60,
		Torus:           Torus{Width: 4, Height: 4, HopLatencyCycles: 100, PeakBisectionGBs: 128},
		ROBEntries:      256,
		Geometry:        mem.DefaultGeometry(),
	}
}

// Validate reports whether the configuration is usable.
func (c SystemConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("config: nodes must be positive")
	}
	if c.ClockGHz <= 0 {
		return fmt.Errorf("config: clock must be positive")
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if err := c.Torus.Validate(); err != nil {
		return err
	}
	return c.Geometry.Validate()
}

// NsToCycles converts nanoseconds to cycles at the configured clock.
func (c SystemConfig) NsToCycles(ns float64) uint64 {
	return uint64(ns*c.ClockGHz + 0.5)
}

// MemoryLatencyCycles is the DRAM latency in cycles.
func (c SystemConfig) MemoryLatencyCycles() uint64 {
	return c.NsToCycles(c.MemoryLatencyNs)
}

// HopLatencyCycles is one interconnect hop in cycles.
func (c SystemConfig) HopLatencyCycles() uint64 { return c.Torus.HopLatencyCycles }

// ThreeHopLatencyCycles approximates a dirty coherent read miss: request to
// home, forward to the owner, owner's L2 access, data to the requester.
// This is the "3-hop coherence miss latency" Section 5.6 uses to size the
// stream lookahead.
func (c SystemConfig) ThreeHopLatencyCycles() uint64 {
	hop := float64(c.HopLatencyCycles()) * c.Torus.averageHops()
	return uint64(3*hop) + c.L2LatencyCycles*2
}

// SVBHitLatencyCycles is the latency of a consumption satisfied by the SVB
// (probed in parallel with the L2, so an L2-like latency).
func (c SystemConfig) SVBHitLatencyCycles() uint64 { return c.L2LatencyCycles }

// Table1 returns the Table 1 rows as (parameter, value) pairs for display.
func (c SystemConfig) Table1() [][2]string {
	return [][2]string{
		{"Processing Nodes", fmt.Sprintf("%d nodes, UltraSPARC III ISA, %.0f GHz, 8-wide, %d-entry ROB", c.Nodes, c.ClockGHz, c.ROBEntries)},
		{"L1 Caches", fmt.Sprintf("Split I/D, %dKB %d-way, %d-cycle load-to-use", c.L1.SizeBytes/1024, c.L1.Ways, c.L1LatencyCycles)},
		{"L2 Cache", fmt.Sprintf("Unified, %dMB %d-way, %d-cycle hit latency, %d MSHRs", c.L2.SizeBytes>>20, c.L2.Ways, c.L2LatencyCycles, c.L2MSHRs)},
		{"Main Memory", fmt.Sprintf("%.0f ns access latency, %d-byte coherence unit", c.MemoryLatencyNs, c.Geometry.BlockSize)},
		{"Interconnect", fmt.Sprintf("%dx%d 2D torus, %d cycles/hop, %.0f GB/s peak bisection bandwidth", c.Torus.Width, c.Torus.Height, c.Torus.HopLatencyCycles, c.Torus.PeakBisectionGBs)},
	}
}

// Table2 returns the Table 2 rows (application, parameters): the default
// workload suite, excluding the Extra cross-workload mixes (which have no
// Table 2 analogue — they colocate suite entries).
func Table2() [][2]string {
	var out [][2]string
	for _, s := range workload.Registry() {
		if s.Extra {
			continue
		}
		out = append(out, [2]string{s.Name, s.Parameters})
	}
	return out
}
