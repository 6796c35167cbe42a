package busnet

import (
	"reflect"
	"testing"
)

// Every backend fills the shared summary from its own payload, and
// exactly one payload pointer is set: Results (with Diagnostics) for
// the simulator, Analytic or Fluid for the models.
func TestEvaluatePayloadShapes(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	cfg.Processors = 4
	cfg.Seed = 42
	for _, b := range []Backend{BackendSim, BackendAnalytic, BackendFluid} {
		ev, err := Evaluate(cfg, b)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		var payloads int
		var u, x, w, r, q float64
		if p := ev.Results; p != nil {
			payloads++
			u, x, w, r, q = p.Utilization, p.Throughput, p.MeanWait, p.MeanResponse, p.MeanQueueLen
			if ev.Diagnostics == nil || ev.Diagnostics != p.Diagnostics {
				t.Errorf("%s: Diagnostics %p not the Results' %p", b, ev.Diagnostics, p.Diagnostics)
			}
		}
		if p := ev.Analytic; p != nil {
			payloads++
			u, x, w, r, q = p.Utilization, p.Throughput, p.MeanWait, p.MeanResponse, p.MeanQueueLen
		}
		if p := ev.Fluid; p != nil {
			payloads++
			u, x, w, r, q = p.Utilization, p.Throughput, p.MeanWait, p.MeanResponse, p.MeanQueueLen
		}
		if ev.Backend != b || payloads != 1 {
			t.Fatalf("%s: backend %q with %d payloads: %+v", b, ev.Backend, payloads, ev)
		}
		if b != BackendSim && ev.Diagnostics != nil {
			t.Errorf("%s: closed-form backend reported Diagnostics", b)
		}
		if ev.Utilization != u || ev.Throughput != x || ev.MeanWait != w ||
			ev.MeanResponse != r || ev.MeanQueueLen != q {
			t.Errorf("%s: summary fields diverged from the payload: %+v", b, ev)
		}
	}
}

// The zero backend resolves to simulation, and unknown backends are
// refused before any work happens.
func TestEvaluateBackendResolution(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(2000)
	ev, err := Evaluate(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendSim || ev.Results == nil {
		t.Fatalf("zero backend resolved to %+v", ev.Backend)
	}
	if _, err := Evaluate(cfg, Backend("warp")); err == nil {
		t.Error("unknown backend accepted")
	}
}

// Evaluate with equal (config, backend) is deterministic.
func TestEvaluateDeterministic(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(3000)
	cfg.Seed = 9
	a, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different evaluations")
	}
}

// One flat replication at the optimize scenario's job shape — N = 16,
// λ = 0.05, buffered depth 2, horizon 200, warmup 20 — a job the
// optimizer runs tens of thousands of times per pass, so its garbage is
// the per-job cost above the engine. AllocsPerRun's warm-up call
// leaves its engine, RNG and fabric in the replication pool, so the
// lock measures a warm worker: what remains is the Results a caller
// keeps (per-bus utilization, grants, diagnostics, the histogram
// copies) plus the run's default source and service distribution. A
// run that builds its engine and fabric afresh took 69 allocations
// (Quantiles off) and 75 (on); the flat engine before that, 88 and 94.
func TestEvaluateReplicationAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, tt := range []struct {
		quantiles bool
		limit     float64
	}{{false, 6}, {true, 10}} {
		cfg := DefaultConfig()
		cfg.Processors = 16
		cfg.ThinkRate = 0.05
		cfg.Mode = ModeBuffered
		cfg.BufferCap = 2
		cfg.Horizon = 200
		cfg.Warmup = 20
		cfg.Quantiles = tt.quantiles
		var err error
		got := testing.AllocsPerRun(20, func() { _, err = Evaluate(cfg, BackendSim) })
		if err != nil {
			t.Fatal(err)
		}
		if got > tt.limit {
			t.Errorf("quantiles=%v: Evaluate allocates %v times per replication, limit %v", tt.quantiles, got, tt.limit)
		}
	}
}

// TestEvaluateTopologyReplicationAllocs is the same lock for a bridged
// fabric: the job shape above feeding a transit segment through a
// 2-deep bridge, horizon 200, on a warm worker. Lowering the topology
// (segment and link arrays, the name index, routes) and the snapshot's
// per-segment and per-flow results account for the count; building
// the engine and fabric afresh took 101.
func TestEvaluateTopologyReplicationAllocs(t *testing.T) {
	skipUnderRace(t)
	top, err := NewTopology().
		BufferedSourceNode("cpu", 16, 0.05, 1, 2, "mem").
		TransitNode("mem", 1).
		Bridge("cpu", "mem", 2).
		Horizon(200).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() { _, err = EvaluateTopology(top, BackendSim) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := 23.0; got > limit {
		t.Errorf("EvaluateTopology allocates %v times per replication, limit %v", got, limit)
	}
}

// skipUnderRace skips an allocation lock under the race detector, where
// sync.Pool drops a random share of Puts by design, so a warm worker's
// pool is not warm.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool discards pooled values at random under the race detector")
	}
}
