package experiments

import (
	"fmt"

	"tsm/internal/interconnect"
	"tsm/internal/trace"
)

// Fig11 reproduces Figure 11: the interconnect bisection bandwidth consumed
// by TSE overhead traffic (CMOB pointer updates, stream requests, address
// streams and discarded blocks), in GB/s, with the ratio of overhead to base
// traffic annotated — plus the CMOB pin-bandwidth overhead quoted in
// Section 5.4.
func Fig11(w *Workspace) (Table, error) {
	t := Table{
		ID:    "fig11",
		Title: "Interconnect bisection bandwidth overhead",
		Columns: []string{
			"Workload", "Overhead (GB/s)", "Overhead/base traffic", "CMOB pin-bandwidth overhead",
		},
		Notes: "Paper: overhead is below ~4 GB/s per workload (under 7% of a GS1280's 49.6 GB/s " +
			"bisection), with address streams the dominant component; CMOB recording adds 4%-7% pin " +
			"bandwidth for scientific and <1% for commercial workloads.",
	}
	sys := w.System()
	for _, name := range w.WorkloadNames() {
		data, pair, err := w.paper(name)
		if err != nil {
			return Table{}, err
		}
		full := pair.withTSE.TSE

		// Wall-clock duration of the run, estimated from the baseline
		// timing model (aggregate cycles divided by node count).
		wallCycles := pair.base.TotalCycles() / uint64(w.Options().Nodes)
		overheadGBs := interconnect.BandwidthGBs(full.Traffic.OverheadBytes(), wallCycles, sys.ClockGHz)

		// Baseline traffic denominator: all classified events move traffic
		// in the base system — consumptions and other read misses carry a
		// request plus a data reply, writes on average carry a request plus
		// invalidation/acknowledgement traffic and sometimes a data reply.
		counts := data.Trace.CountByKind()
		blockMsg := uint64(sys.Geometry.BlockSize) + 16
		baseBytes := uint64(counts[trace.KindConsumption])*blockMsg +
			uint64(counts[trace.KindReadMiss])*blockMsg +
			uint64(counts[trace.KindWrite])*(blockMsg/2)
		overheadRatio := 0.0
		if baseBytes > 0 {
			overheadRatio = float64(full.Traffic.OverheadBytes()) / float64(baseBytes)
		}

		// CMOB pin bandwidth: every consumption appends one 6-byte entry,
		// packetized into block-sized writes to local memory; compare with
		// the node's overall off-chip data traffic.
		cmobBytes := full.Consumptions * 6
		pinOverhead := 0.0
		if baseBytes > 0 {
			pinOverhead = float64(cmobBytes) / float64(baseBytes)
		}

		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", overheadGBs),
			pct(overheadRatio),
			pct(pinOverhead),
		})
	}
	return t, nil
}
