// Quickstart: generate a small OLTP workload trace, run the Temporal
// Streaming Engine over it, and print coverage, discards and the timing
// model's speedup — the headline result of the paper in a few lines of code.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"tsm"
)

func main() {
	opts := tsm.Options{Nodes: 16, Scale: 0.1, Seed: 1}

	// Generate the DB2/TPC-C-like workload and classify its memory accesses
	// into coherent read misses ("consumptions") and writes.
	trace, gen, err := tsm.GenerateTrace("db2", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d events (%d consumptions) for %q\n",
		trace.Len(), trace.ConsumptionCount(), "db2")

	// Evaluate the paper's TSE configuration: trace-driven coverage plus the
	// DSM timing model's speedup over the baseline system.
	report, err := tsm.EvaluateTSE(trace, gen, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)

	// How much of the opportunity is there to begin with? (Figure 6.)
	curve, err := tsm.CorrelationOpportunity(trace, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("temporally correlated consumptions: %.1f%% at distance 1, %.1f%% within distance 8\n",
		100*curve[0], 100*curve[7])
}
