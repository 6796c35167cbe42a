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
// docs/perf.md.
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
			b.ReportAllocs()
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

// BenchmarkCachedEscalation measures the optimizer's escalation path:
// one op races shortCandidates through one fresh Cache at 10, then 20,
// then 40 replications, on one worker, as the optimizer's schedule
// does. Each escalation serves the replications it has seen from the
// cache and simulates the rest, so B/op gates what a cache entry and a
// hit cost on top of the simulations themselves.
func BenchmarkCachedEscalation(b *testing.B) {
	points := shortCandidates()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := NewCache()
		for _, reps := range []int{10, 20, 40} {
			spec := Spec{Points: points, Replications: reps, Workers: 1, Cache: cache}
			if _, err := Run(spec); err != nil {
				b.Fatal(err)
			}
		}
		if got, want := cache.Misses(), uint64(8*40); got != want {
			b.Fatalf("escalation simulated %d jobs, want %d", got, want)
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

// BenchmarkSweepCached pins the cache-hit fast path: the same sweep as
// BenchmarkSweepParallel's single-worker case, answered entirely from a
// pre-warmed Cache. Every job is a map read — each point's config is
// hashed once per sweep, and no job simulates — so per-op time is the
// pipeline + reduce overhead the optimizer pays when it re-races
// survivors it has already measured.
func BenchmarkSweepCached(b *testing.B) {
	base := busnet.DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	spec := Spec{
		Grid: Grid{
			Base:       base,
			Processors: []int{2, 4, 8, 12, 16, 24, 32, 64},
		},
		Replications: 4,
		Workers:      1,
		Cache:        NewCache(),
	}
	if _, err := Run(spec); err != nil {
		b.Fatal(err)
	}
	if spec.Cache.Misses() == 0 {
		b.Fatal("warm-up run recorded no misses")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := spec.Cache.Misses(), uint64(8*4); got != want {
		b.Fatalf("timed runs missed the cache: misses = %d, want %d (warm-up only)", got, want)
	}
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
