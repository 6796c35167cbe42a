package busnet_test

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// A flat operating point is a Config value; Evaluate runs it on any
// backend and reports the same summary fields, so the simulation and
// its closed-form counterpart compare side by side. At depth 4 that
// counterpart is the M/M/1/K loss approximation of the finite
// interface buffers, not an exact solution.
func ExampleEvaluate() {
	cfg := busnet.DefaultConfig()
	cfg.Processors = 16
	cfg.ThinkRate = 0.05  // λ per processor
	cfg.ServiceRate = 1.0 // μ of the bus
	cfg.Mode = busnet.ModeBuffered
	cfg.BufferCap = 4 // 4 slots per interface
	cfg.Seed = 42     // same seed ⇒ identical results

	sim, err := busnet.Evaluate(cfg, busnet.BackendSim)
	if err != nil {
		panic(err)
	}
	model, err := busnet.Evaluate(cfg, busnet.BackendAnalytic) // M/M/1/K approximation at depth 4
	if err != nil {
		panic(err)
	}
	fmt.Printf("sim U=%.3f Wq=%.3f   analytic U=%.3f Wq=%.3f\n",
		sim.Utilization, sim.MeanWait, model.Utilization, model.MeanWait)
	// Output:
	// sim U=0.798 Wq=3.874   analytic U=0.800 Wq=4.000
}

// A fabric is a Topology value, here built with NewTopology: 16
// buffered processors on "cpu" whose every request crosses a 4-slot
// bridge into "mem". The simulated end-to-end response sits above the
// product-form overlay, which assumes unbounded bridges.
func ExampleEvaluateTopology() {
	top, err := busnet.NewTopology().
		BufferedSourceNode("cpu", 16, 0.04, 1, busnet.Infinite, "mem").
		TransitNode("mem", 1).
		Bridge("cpu", "mem", 4). // 4-slot bridge; busnet.Infinite for unbounded
		Seed(42).
		Build()
	if err != nil {
		panic(err)
	}
	sim, err := busnet.EvaluateTopology(top, busnet.BackendSim)
	if err != nil {
		panic(err)
	}
	overlay, err := busnet.EvaluateTopology(top, busnet.BackendAnalytic)
	if err != nil {
		panic(err)
	}
	for _, hop := range sim.Results.Hops {
		fmt.Printf("%s: U=%.3f blocked=%.3f\n", hop.Name, hop.Utilization, hop.Blocked)
	}
	fmt.Printf("end-to-end: sim %.3f   product form %.3f\n", sim.MeanResponse, overlay.MeanResponse)
	// Output:
	// cpu: U=0.682 blocked=0.036
	// mem: U=0.645 blocked=0.000
	// end-to-end: sim 5.811   product form 5.556
}
