package topo

import (
	"testing"

	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/sim"
)

// loadedBus is the paper's model under steady load: one 16-station
// buffered segment at λ = 0.06, μ = 1, interfaces 8 deep.
func loadedBus() SegmentConfig {
	return SegmentConfig{Name: "cpu", ServiceRate: 1, Stations: 16, ThinkRate: 0.06,
		Mode: bus.Buffered, BufferCap: 8}
}

// loadedTandem feeds loadedBus into a memory segment over a finite
// bridge, so a steady-state window exercises arbitration, bridge
// queueing, blocking-after-service, and release on top of the
// one-segment machinery.
func loadedTandem() Config {
	cpu := loadedBus()
	cpu.Route = []int{1}
	return Config{
		Segments: []SegmentConfig{cpu, {Name: "mem", ServiceRate: 1}},
		Links:    []LinkConfig{{From: 0, To: 1, Depth: 4}},
	}
}

// TestFabricSteadyStateAllocFree locks the zero-allocation contract for
// a bridged fabric with probes disabled, the multi-segment twin of
// internal/bus's TestNetworkSteadyStateAllocFree: once the event pool
// and every queue have reached their high-water marks, a steady-state
// window — draws, arbitration, bridge transit, blocking, statistics,
// and the always-on diagnostics counters — runs without touching the
// heap.
func TestFabricSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	f, err := New(loadedTandem(), eng, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(1000); err != nil { // reach the high-water marks
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := eng.RunUntil(eng.Now() + 100); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state fabric allocates %v per 100-time-unit window, want 0", avg)
	}
	if c := f.Counters(); c.BridgeCrossings == 0 || c.ArbScanSlots == 0 {
		t.Fatalf("diagnostics counters dead during the alloc-free window: %+v", c)
	}
}

// BenchmarkFabricSteadyState measures whole-fabric event throughput
// with probes disabled — the configuration the benchstat gate watches,
// so any instrumentation overhead on the hot path shows up here. One op
// is one fired event.
func BenchmarkFabricSteadyState(b *testing.B) {
	benchSteadyState(b, loadedTandem())
}

// BenchmarkOneSegmentSteadyState is the paper's model on the same
// footing: loadedBus alone, every flat run's hot path.
func BenchmarkOneSegmentSteadyState(b *testing.B) {
	benchSteadyState(b, Config{Segments: []SegmentConfig{loadedBus()}})
}

// benchSteadyState runs cfg past its startup transient, then times
// b.N fired events in windows of 100 time units.
func benchSteadyState(b *testing.B, cfg Config) {
	eng := sim.NewEngine()
	f, err := New(cfg, eng, sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	// Warm well past the startup transient: the queues and event pool
	// grow toward their high-water marks for a long tail under this
	// near-saturated load, and a straggler growth allocation would show
	// as a nonzero B/op in a short run.
	if err := eng.RunUntil(5000); err != nil {
		b.Fatal(err)
	}
	start := eng.Processed()
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Processed()-start < uint64(b.N) {
		if err := eng.RunUntil(eng.Now() + 100); err != nil {
			b.Fatal(err)
		}
	}
}
