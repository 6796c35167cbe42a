package busnet

import (
	"reflect"
	"testing"
)

// The deprecation contract: every legacy entry point produces output
// identical to Evaluate with the matching backend — payloads, summary
// fields, and errors alike.
func TestEvaluateSubsumesRun(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	cfg.Seed = 42
	cfg.Quantiles = true
	net, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendSim || ev.Results == nil || ev.Analytic != nil || ev.Fluid != nil {
		t.Fatalf("sim evaluation payload shape: %+v", ev)
	}
	if !reflect.DeepEqual(*ev.Results, legacy) {
		t.Fatalf("Evaluate sim results diverged from Network.Run:\n%+v\nvs\n%+v", *ev.Results, legacy)
	}
	if ev.Utilization != legacy.Utilization || ev.Throughput != legacy.Throughput ||
		ev.MeanWait != legacy.MeanWait || ev.MeanResponse != legacy.MeanResponse ||
		ev.MeanQueueLen != legacy.MeanQueueLen {
		t.Errorf("summary fields diverged from Results: %+v", ev)
	}
}

func TestEvaluateSubsumesPredict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = ModeBuffered
	cfg.BufferCap = Infinite
	legacy, err := Predict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendAnalytic || ev.Analytic == nil || ev.Results != nil || ev.Fluid != nil {
		t.Fatalf("analytic evaluation payload shape: %+v", ev)
	}
	if *ev.Analytic != legacy {
		t.Fatalf("Evaluate analytic diverged from Predict: %+v vs %+v", *ev.Analytic, legacy)
	}
	if ev.MeanResponse != legacy.MeanResponse || ev.Utilization != legacy.Utilization {
		t.Errorf("summary fields diverged: %+v", ev)
	}
	// Error cases must match too: same domain, same message.
	bad := cfg
	bad.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	_, errLegacy := Predict(bad)
	_, errEval := Evaluate(bad, BackendAnalytic)
	if errLegacy == nil || errEval == nil || errLegacy.Error() != errEval.Error() {
		t.Errorf("analytic error mismatch: %v vs %v", errLegacy, errEval)
	}
}

func TestEvaluateSubsumesFluidPredict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processors = 64
	legacy, err := FluidPredict(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(cfg, BackendFluid)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Backend != BackendFluid || ev.Fluid == nil || ev.Results != nil || ev.Analytic != nil {
		t.Fatalf("fluid evaluation payload shape: %+v", ev)
	}
	if *ev.Fluid != legacy {
		t.Fatalf("Evaluate fluid diverged from FluidPredict: %+v vs %+v", *ev.Fluid, legacy)
	}
	bad := cfg
	bad.Mode = ModeBuffered
	bad.BufferCap = Infinite
	_, errLegacy := FluidPredict(bad)
	_, errEval := Evaluate(bad, BackendFluid)
	if errLegacy == nil || errEval == nil || errLegacy.Error() != errEval.Error() {
		t.Errorf("fluid error mismatch: %v vs %v", errLegacy, errEval)
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
// the per-job cost above the engine. The limits are the counts the
// one-segment fabric reaches; the flat engine it replaced took 88
// allocations (Quantiles off) and 94 (on).
func TestEvaluateReplicationAllocs(t *testing.T) {
	for _, tt := range []struct {
		quantiles bool
		limit     float64
	}{{false, 69}, {true, 75}} {
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
