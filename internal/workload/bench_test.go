package workload

import (
	"testing"

	"github.com/busnet/busnet/internal/sim"
)

// BenchmarkSourceNext measures one inter-arrival draw per shape — the
// per-request cost the workload subsystem adds to the think-scheduling
// hot path. The benchmark in bench/ reports the same draw per fired
// event as sim.variate (bench/README.md).
func BenchmarkSourceNext(b *testing.B) {
	benches := []struct {
		name string
		spec Spec
		base float64
	}{
		{"poisson", Spec{}, 0.1},
		{"deterministic", Spec{Kind: KindDeterministic}, 0.1},
		{"mmpp2", Spec{Kind: KindMMPP2, Rate0: 0.05, Rate1: 0.8, Switch01: 0.01, Switch10: 0.09}, 0},
		{"onoff", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.1, CycleTime: 200}, 0},
	}
	for _, bb := range benches {
		b.Run(bb.name, func(b *testing.B) {
			src, err := bb.spec.NewSource(bb.base)
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRNG(1)
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += src.Next(rng)
			}
			if sink <= 0 {
				b.Fatal("sources must advance time")
			}
		})
	}
}
