package sweep

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
)

// BenchmarkSweepParallel measures one fixed experiment — an 8-point
// unbuffered curve over N with 4 replications per point — at increasing
// worker counts. Jobs are independent simulations with no shared state,
// so speedup should stay near-linear until the pool exhausts the
// hardware. The repo's timed record is bench/ (bench/README.md) and
// docs/perf.md. Each worker count runs the sweep once untimed first, so
// every worker's replication pool is warm before the clock starts and
// B/op does not depend on whether a timed op had to fill one.
func BenchmarkSweepParallel(b *testing.B) {
	base := busnet.DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	spec := Spec{
		Grid: Grid{
			Base:       base,
			Processors: []int{2, 4, 8, 12, 16, 24, 32, 64},
		},
		Replications: 4,
	}
	workers := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := spec
			s.Workers = w
			if _, err := Run(s); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiBus measures the multi-bus fabric path end to end: the
// multibus-unbuffered curve's grid (N=32 at demand 3.2, m ∈ {1, 2, 4, 8})
// with 2 replications per point. Against BenchmarkSweepParallel this
// isolates what the fabric adds per event — the free-bus scan, per-bus
// collectors, and the multi-grant dispatch loop; BENCH_baseline.txt
// gates it alongside the other sweeps. It runs on one worker, so its
// time and B/op measure per-event cost rather than a second CPU or how
// many workers' replication pools warm up; BenchmarkSweepParallel is
// the scaling benchmark.
func BenchmarkMultiBus(b *testing.B) {
	base := busnet.DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	base.Processors = 32
	base.ThinkRate = 0.1
	spec := Spec{
		Grid:         Grid{Base: base, Buses: []int{1, 2, 4, 8}},
		Replications: 2,
		Workers:      1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortReplications measures the optimizer's job shape: one op
// is one single-worker sweep over the optimize problem's 8 candidates
// (shortCandidates), 10 replications of horizon 200 with warmup 20 — 80
// replications of a few hundred events each. Setup and garbage per
// replication weigh as much as the events here, so B/op and allocs/op
// gate what each replication leaves to the collector.
func BenchmarkShortReplications(b *testing.B) {
	spec := Spec{Points: shortCandidates(), Replications: 10, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEscalation measures the optimizer's escalation path: one op
// runs shortCandidates' replications 0–9, then 10–19, then 20–39
// through Replicate on one worker, as the race's 10 → 20 → 40 schedule
// asks for only the streams it has not run. Nothing is reduced, so B/op
// gates what the sweep adds to the replications themselves.
func BenchmarkEscalation(b *testing.B) {
	candidates := shortCandidates()
	points := make([]busnet.Config, len(candidates))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jobs := 0
		for from, to := 0, 10; to <= 40; from, to = to, 2*to {
			for k, cfg := range candidates {
				cfg.Stream += uint64(from)
				points[k] = cfg
			}
			spec := Spec{Points: points, Replications: to - from, Workers: 1}
			if err := Replicate(spec, func(int, int, *busnet.Results) { jobs++ }); err != nil {
				b.Fatal(err)
			}
		}
		if want := 8 * 40; jobs != want {
			b.Fatalf("escalation simulated %d jobs, want %d", jobs, want)
		}
	}
}

// shortCandidates is the optimize problem's candidate set: unbuffered,
// and buffered at depths 1, 2 and 4, each on 1 and 2 buses; N = 16,
// λ = 0.05, horizon 200 with warmup 20, seed 42.
func shortCandidates() []busnet.Config {
	base := busnet.DefaultConfig()
	base.Seed = 42
	base.Processors = 16
	base.ThinkRate = 0.05
	base.Horizon = 200
	base.Warmup = 20
	var points []busnet.Config
	for _, m := range []int{1, 2} {
		unbuffered := base
		unbuffered.Buses = m
		points = append(points, unbuffered)
		for _, depth := range []int{1, 2, 4} {
			buffered := unbuffered
			buffered.Mode = busnet.ModeBuffered
			buffered.BufferCap = depth
			points = append(points, buffered)
		}
	}
	return points
}

// BenchmarkBurstySweep measures the bursty-traffic path end to end: a
// 6-point mean-preserving MMPP2 burstiness curve at N=16 with 2
// replications per point. Against BenchmarkSweepParallel this isolates
// the cost the workload subsystem adds per event (modulated sources
// draw 2–3 variates per request instead of 1); BENCH_baseline.txt
// gates it alongside the other sweeps. Like BenchmarkMultiBus it runs on
// one worker, to measure per-event cost.
func BenchmarkBurstySweep(b *testing.B) {
	base := busnet.DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	base.Processors = 16
	base.ThinkRate = 0.0375
	traffics := make([]busnet.Traffic, 0, 6)
	for _, ratio := range []float64{1, 2, 4, 8, 16, 32} {
		traffics = append(traffics, busnet.RareBurstMMPP2(0.0375, ratio, 100, 0.1))
	}
	spec := Spec{
		Grid:         Grid{Base: base, Traffics: traffics},
		Replications: 2,
		Workers:      1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologySweep measures the topology replication path: one op
// is one single-worker sweep over the fabric workload's bridge-depth
// tandems (cpu, N = 16 at λ = 0.04, buffered without bound → mem over a
// bridge of depth 1, 2, 4, 8, 16 or 32), 10 replications each of
// horizon 1 000. The replications are short, so B/op and allocs/op gate
// what each topology replication allocates besides its results: its
// lowering and its run state.
func BenchmarkTopologySweep(b *testing.B) {
	var points []busnet.Topology
	for _, depth := range []int{1, 2, 4, 8, 16, 32} {
		top, err := busnet.NewTopology().
			BufferedSourceNode("cpu", 16, 0.04, 1, busnet.Infinite, "mem").
			TransitNode("mem", 1).
			Bridge("cpu", "mem", depth).
			Seed(42).
			Horizon(1_000).
			Build()
		if err != nil {
			b.Fatal(err)
		}
		points = append(points, top)
	}
	spec := TopologySpec{Points: points, Replications: 10, Workers: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTopology(spec); err != nil {
			b.Fatal(err)
		}
	}
}
