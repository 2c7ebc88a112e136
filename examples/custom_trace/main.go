// Custom trace: evaluate temporal streaming on a hand-built consumption
// trace instead of one of the bundled workloads. This is the integration
// path for users who already have shared-memory miss traces from their own
// simulator: produce a tsm.Trace (consumptions and writes in global order)
// and compare TSE against the baseline prefetchers on it.
//
// The trace built here is a migratory work queue: node 0 produces a batch of
// irregularly-addressed work items, and nodes 1..3 then walk the batch in
// the same order — exactly the temporal address correlation TSE exploits and
// stride/GHB prefetchers cannot.
//
// Run with:
//
//	go run ./examples/custom_trace
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tsm"
	"tsm/internal/mem"
	"tsm/internal/trace"
)

func main() {
	const (
		nodes     = 4
		batchSize = 2000
		batches   = 5
	)
	rng := rand.New(rand.NewSource(42))

	var tr tsm.Trace
	for b := 0; b < batches; b++ {
		// Node 0 produces a batch of work items at irregular addresses.
		items := make([]mem.BlockAddr, batchSize)
		for i := range items {
			items[i] = mem.BlockAddr(uint64(rng.Intn(1<<22)) * 64)
			tr.Append(trace.Event{Kind: trace.KindWrite, Node: 0, Block: items[i]})
		}
		// Nodes 1..3 consume the batch in production order.
		for n := 1; n < nodes; n++ {
			for _, blk := range items {
				tr.Append(trace.Event{
					Kind: trace.KindConsumption, Node: mem.NodeID(n), Block: blk, Producer: 0,
				})
			}
		}
	}

	opts := tsm.Options{Nodes: nodes, Lookahead: 8}
	reports, err := tsm.ComparePrefetchers(&tr, nil, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migratory work-queue trace: %d events, %d consumptions\n\n",
		tr.Len(), tr.ConsumptionCount())
	for _, r := range reports {
		fmt.Println(r)
	}

	curve, err := tsm.CorrelationOpportunity(&tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntemporally correlated consumptions within distance 1: %.1f%%\n", 100*curve[0])
}
