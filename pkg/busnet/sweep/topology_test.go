package sweep

import (
	"reflect"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
)

// tandem builds the 2-hop chain cpu(n × λ, buffered-infinite) →
// bridge(depth) → mem with per-hop service rates mu0, mu1.
func tandem(t *testing.T, n int, lambda, mu0, mu1 float64, depth int, seed int64) busnet.Topology {
	t.Helper()
	top, err := busnet.NewTopology().
		BufferedSourceNode("cpu", n, lambda, mu0, busnet.Infinite, "mem").
		TransitNode("mem", mu1).
		Bridge("cpu", "mem", depth).
		Seed(seed).
		Horizon(30000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// The tentpole cross-validation: the 2-hop tandem simulation must agree
// with the exact open-tandem product form. N buffered-infinite Poisson
// stations superpose to a Poisson aggregate, and Burke's theorem makes
// each stable M/M/1 hop's departures Poisson again — so with unbounded
// bridges the analytic mean end-to-end response is exact, and the DES
// estimate's 95% CI must cover it. Four (λ, μ, depth) operating points
// up to ρ = 0.7, including one deep-but-finite bridge whose blocking
// probability is negligible at this load.
func TestTandemSimWithin95CIOfOpenTandem(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated 2-hop sweeps are slow")
	}
	cases := []struct {
		name     string
		n        int
		lambda   float64
		mu0, mu1 float64
		depth    int
	}{
		{"rho-0.6-balanced", 12, 0.05, 1, 1, busnet.Infinite},
		{"rho-0.6-fast-mem", 12, 0.05, 1, 1.25, busnet.Infinite},
		{"rho-0.5-fast-cpu", 8, 0.0625, 1.25, 1, busnet.Infinite},
		{"rho-0.7-deep-finite-bridge", 16, 0.04375, 1, 1, 64},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			top := tandem(t, tt.n, tt.lambda, tt.mu0, tt.mu1, tt.depth, 11)
			res, err := RunTopology(TopologySpec{
				Points:       []busnet.Topology{top},
				Replications: 6,
			})
			if err != nil {
				t.Fatal(err)
			}
			pt := res.Points[0]
			if pt.Analytic == nil {
				t.Fatal("product-form overlay missing on a buffered-infinite tandem")
			}
			want := pt.Analytic.MeanResponse
			e2e := pt.EndToEnd
			if !(e2e.Lo <= want && want <= e2e.Hi) {
				t.Errorf("analytic e2e response %v outside the DES 95%% CI [%v, %v] (mean %v)",
					want, e2e.Lo, e2e.Hi, e2e.Mean)
			}
			// Per-hop utilization must track the traffic equations too.
			for k, h := range pt.Hops {
				an := pt.Analytic.Nodes[k]
				if !(h.Utilization.Lo <= an.Utilization && an.Utilization <= h.Utilization.Hi) {
					t.Errorf("hop %q: analytic utilization %v outside CI [%v, %v]",
						h.Node, an.Utilization, h.Utilization.Lo, h.Utilization.Hi)
				}
			}
			if pt.Throughput.Mean <= 0 {
				t.Error("no throughput measured")
			}
		})
	}
}

// A tight bridge under load must cost more than the no-blocking bound:
// the simulated end-to-end response rises above the product form, and
// the upstream hop reports a nonzero blocked fraction.
func TestTandemBlockingPenaltyAboveProductFormBound(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated 2-hop sweeps are slow")
	}
	top := tandem(t, 8, 0.08, 2, 0.8, 1, 3)
	res, err := RunTopology(TopologySpec{Points: []busnet.Topology{top}, Replications: 4})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Analytic == nil {
		t.Fatal("overlay missing")
	}
	if pt.EndToEnd.Mean <= pt.Analytic.MeanResponse {
		t.Errorf("depth-1 bridge e2e %v not above the no-blocking bound %v",
			pt.EndToEnd.Mean, pt.Analytic.MeanResponse)
	}
	if pt.Hops[0].Blocked.Mean <= 0 {
		t.Error("upstream hop reports no blocking under a depth-1 bridge at ρ = 0.8")
	}
}

// Worker count must never affect the numbers, only wall-clock time.
func TestRunTopologyDeterministicAcrossWorkers(t *testing.T) {
	mk := func() busnet.Topology { return tandem(t, 4, 0.06, 1, 1, 2, 5) }
	short := mk()
	short.Horizon = 4000
	short.Warmup = 400
	spec := func(w int) TopologySpec {
		return TopologySpec{Points: []busnet.Topology{short}, Replications: 3, Workers: w}
	}
	a, err := RunTopology(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTopology(spec(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("worker count changed the sweep output")
	}
}

// The analytic backend runs no simulation: point estimates carry the
// product form verbatim in the single-replication Stat encoding.
func TestRunTopologyAnalyticBackend(t *testing.T) {
	top := tandem(t, 12, 0.05, 1, 1.25, busnet.Infinite, 1)
	res, err := RunTopology(TopologySpec{
		Points:  []busnet.Topology{top},
		Backend: busnet.BackendAnalytic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replications != 0 {
		t.Errorf("analytic sweep reports %d replications", res.Replications)
	}
	pt := res.Points[0]
	ev, err := busnet.EvaluateTopology(top, busnet.BackendAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	want := ev.Analytic
	if pt.EndToEnd.Mean != want.MeanResponse || !pt.EndToEnd.CIUndefined {
		t.Errorf("EndToEnd = %+v, want point estimate %v", pt.EndToEnd, want.MeanResponse)
	}
	if pt.Throughput.Mean != want.Throughput {
		t.Errorf("Throughput = %v, want %v", pt.Throughput.Mean, want.Throughput)
	}
	for k, h := range pt.Hops {
		if h.Utilization.Mean != want.Nodes[k].Utilization {
			t.Errorf("hop %q utilization %v, want %v", h.Node, h.Utilization.Mean, want.Nodes[k].Utilization)
		}
	}
	// Domain errors surface, never silently drop points.
	if _, err := RunTopology(TopologySpec{
		Points:  []busnet.Topology{top},
		Backend: busnet.BackendFluid,
	}); err == nil {
		t.Error("fluid topology sweep accepted")
	}
	if _, err := RunTopology(TopologySpec{}); err == nil {
		t.Error("empty topology sweep accepted")
	}
}
