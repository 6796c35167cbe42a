package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventLoop measures the engine hot path: schedule one event,
// fire it, schedule the next from inside the callback — the steady-state
// pattern of every model built on the engine.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine()
	var fire func()
	remaining := b.N
	fire = func() {
		remaining--
		if remaining > 0 {
			e.Schedule(1, fire)
		}
	}
	e.Schedule(1, fire)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if e.Processed() != uint64(b.N) {
		b.Fatalf("processed %d, want %d", e.Processed(), b.N)
	}
}

// BenchmarkEnginePending measures one schedule plus one fire at the
// pending-set sizes the models run with: 8 to 32 events, where the
// workloads' ladder measures 17–22 (stations plus buses). Each pending
// event is one self-rescheduling callback cycling through gaps
// pre-drawn into a ring, so the timing covers the engine alone: one
// callback draws service-like gaps (exponential, mean 1), the rest
// think-like gaps (mean 20). One op is one fired event.
func BenchmarkEnginePending(b *testing.B) {
	for _, pending := range []int{8, 20, 32} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			const ring = 256
			rng := NewRNG(1)
			e := NewEngine()
			left := 0
			for k := range pending {
				rate := 1.0 / 20
				if k == 0 {
					rate = 1
				}
				gaps := make([]float64, ring)
				for i := range gaps {
					gaps[i] = rng.Exp(rate)
				}
				i := 0
				var fn func()
				fn = func() {
					e.Schedule(gaps[i], fn)
					i = (i + 1) % ring
					if left--; left == 0 {
						e.Stop()
					}
				}
				e.Schedule(gaps[ring-1], fn)
			}
			// Cycle the rings so the wheel's width and bucket count
			// settle before measurement.
			left = 16 * ring
			_ = e.Run() // always ErrStopped: the callbacks never drain the set
			b.ReportAllocs()
			b.ResetTimer()
			left = b.N
			_ = e.Run()
		})
	}
}

// BenchmarkTimeWeightedSet measures the stats-collector update that runs
// on every queue transition.
func BenchmarkTimeWeightedSet(b *testing.B) {
	var w TimeWeighted
	for i := 0; i < b.N; i++ {
		w.Set(float64(i&7), float64(i))
	}
}

// BenchmarkHistogramAdd measures the per-observation cost of the
// streaming latency histogram — paid twice per bus transaction on the
// simulator's hot path, so it must stay at bit-twiddling speed.
func BenchmarkHistogramAdd(b *testing.B) {
	var h Histogram
	rng := NewRNG(1)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Exp(0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&4095])
	}
}
