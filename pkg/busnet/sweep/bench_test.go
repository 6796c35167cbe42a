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
// hardware; BENCH_sweep.json records the numbers per machine.
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
// gates it alongside the other sweeps.
func BenchmarkMultiBus(b *testing.B) {
	base := busnet.DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	base.Processors = 32
	base.ThinkRate = 0.1
	spec := Spec{
		Grid:         Grid{Base: base, Buses: []int{1, 2, 4, 8}},
		Replications: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
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
// draw 2–3 variates per request instead of 1); BENCH_workload.json
// records the numbers per machine.
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
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}
