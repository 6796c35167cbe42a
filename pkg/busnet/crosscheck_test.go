package busnet

import (
	"math"
	"testing"
)

// Cross-validation of simulation against the closed-form models, the
// core methodology of the paper. Runs are deterministic (fixed seeds),
// so tolerances are tight without flakiness.
//
// Tolerances: the unbuffered machine-repairman and infinite-buffer M/M/1
// models are exact, so the sim must converge to them as the horizon
// grows; the finite-buffer M/M/1/K model approximates backpressure as
// loss and gets a looser bound at moderate blocking.

func relErr(sim, pred float64) float64 {
	if pred == 0 {
		return math.Abs(sim)
	}
	return math.Abs(sim-pred) / math.Abs(pred)
}

// longRun is the cross-checks' base operating point: DefaultConfig at
// seed 42, run to horizon 400000 with a 10% warmup.
func longRun() Config {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.Horizon, cfg.Warmup = 400_000, 40_000
	return cfg
}

// buffered sets cfg's interfaces to buffered mode with depth capacity
// (Infinite for unbounded).
func buffered(capacity int) func(*Config) {
	return func(c *Config) { c.Mode, c.BufferCap = ModeBuffered, capacity }
}

// mustPredict evaluates cfg with the analytic backend, fatally on error.
func mustPredict(t *testing.T, cfg Config) Prediction {
	t.Helper()
	ev, err := Evaluate(cfg, BackendAnalytic)
	if err != nil {
		t.Fatal(err)
	}
	return *ev.Analytic
}

func TestSimulationMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cross-validation")
	}
	tests := []struct {
		name    string
		n       int
		lambda  float64
		mode    func(*Config)
		utilTol float64
		waitTol float64
	}{
		// Unbuffered: exact finite-source model.
		{"unbuffered/n4/light", 4, 0.1, func(*Config) {}, 0.02, 0.05},
		{"unbuffered/n8/moderate", 8, 0.1, func(*Config) {}, 0.02, 0.05},
		{"unbuffered/n16/heavy", 16, 0.1, func(*Config) {}, 0.02, 0.05},
		// Buffered, unbounded: exact M/M/1.
		{"buffered/n4/rho0.4", 4, 0.1, buffered(Infinite), 0.02, 0.08},
		{"buffered/n8/rho0.6", 8, 0.075, buffered(Infinite), 0.02, 0.08},
		{"buffered/n16/rho0.8", 16, 0.05, buffered(Infinite), 0.02, 0.10},
		// Buffered, finite: M/M/1/K approximation, low-blocking regime.
		{"buffered/n8/cap4", 8, 0.06, buffered(4), 0.05, 0.15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := longRun()
			cfg.Processors = tt.n
			cfg.ThinkRate = tt.lambda
			tt.mode(&cfg)
			pred, res := mustPredict(t, cfg), mustSim(t, cfg)
			if e := relErr(res.Utilization, pred.Utilization); e > tt.utilTol {
				t.Errorf("utilization: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Utilization, pred.Utilization, e, tt.utilTol)
			}
			if e := relErr(res.Throughput, pred.Throughput); e > tt.utilTol {
				t.Errorf("throughput: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Throughput, pred.Throughput, e, tt.utilTol)
			}
			if e := relErr(res.MeanWait, pred.MeanWait); e > tt.waitTol {
				t.Errorf("mean wait: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.MeanWait, pred.MeanWait, e, tt.waitTol)
			}
			if e := relErr(res.MeanQueueLen, pred.MeanQueueLen); e > tt.waitTol {
				t.Errorf("queue length: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.MeanQueueLen, pred.MeanQueueLen, e, tt.waitTol)
			}
		})
	}
}

// Cross-validation of the multi-bus fabric against its m-server closed
// forms — the same methodology as the single-bus checks above, at
// several (N, λ, μ, m) operating points in both regimes. The unbuffered
// M/M/m//N and Erlang-C M/M/m models are exact, so the tolerances
// match the single-bus ones.
func TestMultiBusSimulationMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cross-validation")
	}
	tests := []struct {
		name       string
		n, m       int
		lambda, mu float64
		mode       func(*Config)
		utilTol    float64
		waitTol    float64
	}{
		// Unbuffered: exact finite-source M/M/m//N.
		{"unbuffered/n16/m2", 16, 2, 0.1, 1, func(*Config) {}, 0.02, 0.05},
		{"unbuffered/n32/m4/heavy", 32, 4, 0.1, 1, func(*Config) {}, 0.02, 0.05},
		{"unbuffered/n48/m8/loaded", 48, 8, 0.15, 1, func(*Config) {}, 0.02, 0.05},
		{"unbuffered/n8/m3/mu2", 8, 3, 0.4, 2, func(*Config) {}, 0.02, 0.05},
		// Buffered, unbounded: exact Erlang-C M/M/m.
		{"buffered/n16/m2/rho0.8", 16, 2, 0.1, 1, buffered(Infinite), 0.02, 0.10},
		{"buffered/n16/m4/rho0.6", 16, 4, 0.15, 1, buffered(Infinite), 0.02, 0.10},
		{"buffered/n32/m8/mu0.5/rho0.8", 32, 8, 0.05, 0.5, buffered(Infinite), 0.02, 0.10},
		// Buffered, finite: M/M/m/K approximation, low-blocking regime.
		{"buffered/n16/m2/cap4", 16, 2, 0.09, 1, buffered(4), 0.05, 0.15},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := longRun()
			cfg.Processors = tt.n
			cfg.Buses = tt.m
			cfg.ThinkRate = tt.lambda
			cfg.ServiceRate = tt.mu
			tt.mode(&cfg)
			pred, res := mustPredict(t, cfg), mustSim(t, cfg)
			if e := relErr(res.Utilization, pred.Utilization); e > tt.utilTol {
				t.Errorf("utilization: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Utilization, pred.Utilization, e, tt.utilTol)
			}
			if e := relErr(res.Throughput, pred.Throughput); e > tt.utilTol {
				t.Errorf("throughput: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Throughput, pred.Throughput, e, tt.utilTol)
			}
			if e := relErr(res.MeanWait, pred.MeanWait); e > tt.waitTol {
				t.Errorf("mean wait: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.MeanWait, pred.MeanWait, e, tt.waitTol)
			}
			if e := relErr(res.MeanQueueLen, pred.MeanQueueLen); e > tt.waitTol {
				t.Errorf("queue length: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.MeanQueueLen, pred.MeanQueueLen, e, tt.waitTol)
			}
			// The per-bus breakdown must be consistent with the aggregate:
			// one entry per bus averaging to the reported utilization.
			m := tt.m
			if len(res.BusUtilization) != m {
				t.Fatalf("BusUtilization has %d entries, want %d", len(res.BusUtilization), m)
			}
			sum := 0.0
			for _, u := range res.BusUtilization {
				sum += u
			}
			if e := relErr(sum/float64(m), res.Utilization); e > 1e-9 {
				t.Errorf("mean per-bus utilization %.6f != aggregate %.6f", sum/float64(m), res.Utilization)
			}
		})
	}
}

// The fabric's qualitative headline, simulated end to end: at a fixed
// workload that saturates one bus, each doubling of the fabric raises
// throughput and cuts the wait.
func TestMoreBusesRelieveContention(t *testing.T) {
	run := func(m int) Results {
		cfg := DefaultConfig()
		cfg.Processors = 32
		cfg.Buses = m
		cfg.Seed = 42
		return mustSim(t, cfg)
	}
	prev := run(1)
	for _, m := range []int{2, 4, 8} {
		res := run(m)
		if !(res.Throughput > prev.Throughput) {
			t.Errorf("m=%d throughput %.4f not above m=%d's %.4f", m, res.Throughput, m/2, prev.Throughput)
		}
		if !(res.MeanWait < prev.MeanWait) {
			t.Errorf("m=%d wait %.4f not below m=%d's %.4f", m, res.MeanWait, m/2, prev.MeanWait)
		}
		prev = res
	}
}

// The analytic backend keeps refusing to overlay the Poisson closed
// forms on non-Poisson traffic on a fabric too.
func TestMultiBusPredictRejectsNonPoisson(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Buses = 4
	cfg.Traffic = DeterministicTraffic()
	if _, err := Evaluate(cfg, BackendAnalytic); err == nil {
		t.Fatal("the analytic backend attached an m-server Poisson closed form to deterministic traffic")
	}
}

// Acceptance criterion for the workload subsystem: MMPP2 with equal
// rates in both states is statistically Poisson, so its simulation must
// match the Poisson closed forms within the cross-check tolerances used
// above — even though the modulating chain keeps switching (and drawing)
// underneath.
func TestMMPP2EqualRatesMatchesPoissonAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cross-validation")
	}
	tests := []struct {
		name    string
		n       int
		mode    func(*Config)
		rate    float64
		utilTol float64
		waitTol float64
	}{
		{"unbuffered/n8", 8, func(*Config) {}, 0.1, 0.02, 0.05},
		{"buffered/n16/rho0.8", 16, buffered(Infinite), 0.05, 0.02, 0.10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := longRun()
			cfg.Processors = tt.n
			// ThinkRate is ignored by MMPP2 but echoed as provenance;
			// setting it to the true rate keeps the echo honest.
			cfg.ThinkRate = tt.rate
			cfg.Traffic = MMPP2Traffic(tt.rate, tt.rate, 0.01, 0.01)
			tt.mode(&cfg)
			// The closed form comes from the Poisson-equivalent config:
			// same operating point, plain Poisson shape.
			poisson := cfg
			poisson.Traffic = PoissonTraffic()
			pred, res := mustPredict(t, poisson), mustSim(t, cfg)
			if e := relErr(res.Utilization, pred.Utilization); e > tt.utilTol {
				t.Errorf("utilization: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Utilization, pred.Utilization, e, tt.utilTol)
			}
			if e := relErr(res.Throughput, pred.Throughput); e > tt.utilTol {
				t.Errorf("throughput: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.Throughput, pred.Throughput, e, tt.utilTol)
			}
			if e := relErr(res.MeanWait, pred.MeanWait); e > tt.waitTol {
				t.Errorf("mean wait: sim %.4f vs analytic %.4f (rel err %.3f > %.3f)",
					res.MeanWait, pred.MeanWait, e, tt.waitTol)
			}
		})
	}
}

// rareBurstMMPP2 pins the CLI curves' burst fraction and dwell into the
// shared RareBurstMMPP2 parameterization, so these cross-checks exercise
// the exact shape the bursty-curves scenario runs.
func rareBurstMMPP2(mean, ratio float64) Traffic {
	return RareBurstMMPP2(mean, ratio, 100, 0.1)
}

// Mean-rate preservation end to end: in a stable buffered system every
// request is eventually served, so measured throughput must equal
// N·MeanThinkRate for the bursty shapes too — the invariant that lets
// the bursty curves claim "same offered load, different shape".
func TestBurstyThroughputMatchesMeanRate(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cross-validation")
	}
	const n, mean = 16, 0.0375 // ρ = 0.6
	shapes := []struct {
		name    string
		traffic Traffic
	}{
		{"mmpp2", rareBurstMMPP2(mean, 16)},
		{"onoff", OnOffTraffic(mean/0.2, 0.2, 200)},
		{"poisson-control", PoissonTraffic()},
	}
	for _, tt := range shapes {
		t.Run(tt.name, func(t *testing.T) {
			cfg := longRun()
			cfg.Processors = n
			cfg.ThinkRate = mean
			cfg.Mode, cfg.BufferCap = ModeBuffered, Infinite
			cfg.Traffic = tt.traffic
			res := mustSim(t, cfg)
			want := float64(n) * cfg.MeanThinkRate()
			if e := relErr(res.Throughput, want); e > 0.05 {
				t.Errorf("throughput %.4f vs N·mean rate %.4f (rel err %.3f > 0.05)",
					res.Throughput, want, e)
			}
		})
	}
}

// Wait ordering across shapes at equal mean load. Burstiness must cost:
// the rare-burst MMPP2 waits well above Poisson at the same N and load.
// The deterministic limit is compared at N=1 — D/M/1 vs M/M/1, where
// removing arrival variability provably cuts the wait — because with
// many buffered stations the deterministic comparison is a property of
// the drawn phase offsets (fixed forever in buffered mode), not of the
// shape itself.
func TestWaitOrderingAcrossShapes(t *testing.T) {
	run := func(n int, rate float64, traffic Traffic) Results {
		cfg := DefaultConfig()
		cfg.Processors = n
		cfg.ThinkRate = rate
		cfg.Mode, cfg.BufferCap = ModeBuffered, Infinite
		cfg.Traffic = traffic
		cfg.Seed = 42
		cfg.Horizon, cfg.Warmup = 200_000, 20_000
		return mustSim(t, cfg)
	}
	poi := run(16, 0.0375, PoissonTraffic())
	bursty := run(16, 0.0375, rareBurstMMPP2(0.0375, 16))
	if !(bursty.MeanWait > 2*poi.MeanWait) {
		t.Errorf("bursty MMPP2 wait %.4f not ≫ Poisson %.4f at equal load", bursty.MeanWait, poi.MeanWait)
	}
	detSolo := run(1, 0.6, DeterministicTraffic())
	poiSolo := run(1, 0.6, PoissonTraffic())
	if !(detSolo.MeanWait < poiSolo.MeanWait) {
		t.Errorf("D/M/1 wait %.4f not below M/M/1 %.4f at ρ=0.6", detSolo.MeanWait, poiSolo.MeanWait)
	}
}

// The paper's qualitative headline: at equal workload, buffering trades
// processor blocking for queueing — utilization and throughput rise
// (processors keep issuing while requests wait), and so does the wait a
// request sees at the bus.
func TestBufferingIncreasesUtilization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThinkRate = 0.08
	cfg.Seed = 42
	cfg.Horizon, cfg.Warmup = 200_000, 20_000
	unbuf := mustSim(t, cfg)
	cfg.Mode, cfg.BufferCap = ModeBuffered, Infinite
	buf := mustSim(t, cfg)
	if buf.Utilization <= unbuf.Utilization {
		t.Fatalf("buffered utilization %.4f not above unbuffered %.4f",
			buf.Utilization, unbuf.Utilization)
	}
	if buf.Throughput <= unbuf.Throughput {
		t.Fatalf("buffered throughput %.4f not above unbuffered %.4f",
			buf.Throughput, unbuf.Throughput)
	}
	if buf.MeanWait <= unbuf.MeanWait {
		t.Fatalf("buffered wait %.4f not above unbuffered %.4f (queueing should cost)",
			buf.MeanWait, unbuf.MeanWait)
	}
}

// Acceptance criterion for the service-distribution subsystem: the
// simulated mean wait under non-exponential service must match the
// M/G/1 Pollaczek–Khinchine reference within the 95% confidence
// half-width of 10 independent replications, at (λ, μ, shape) points
// spanning deterministic (exact M/D/1), Erlang, and hyperexponential
// service across light and heavy load. Buffered-infinite single bus:
// N Poisson sources superpose to Poisson arrivals at Nλ, so the closed
// form is exact and any systematic gap is a simulator bug, not model
// error.
func TestServiceShapesMatchPollaczekKhinchine(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cross-validation")
	}
	points := []struct {
		name    string
		n       int
		lambda  float64
		mu      float64
		service Service
	}{
		{"md1/rho0.8", 16, 0.05, 1, DeterministicService()},
		{"md1/rho0.6", 16, 0.0375, 1, DeterministicService()},
		{"md1/rho0.4/mu2", 8, 0.1, 2, DeterministicService()},
		{"mh21/scv4/rho0.8", 16, 0.05, 1, HyperexpService(4)},
		{"mh21/scv2/rho0.6", 16, 0.0375, 1, HyperexpService(2)},
		{"mh21/scv8/rho0.4", 8, 0.05, 1, HyperexpService(8)},
		{"me41/rho0.8", 16, 0.05, 1, ErlangService(4)},
	}
	const reps = 10
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			cfg := DefaultConfig().AtHorizon(400_000)
			cfg.Seed = 42
			cfg.Mode = ModeBuffered
			cfg.BufferCap = Infinite
			cfg.Processors = pt.n
			cfg.ThinkRate = pt.lambda
			cfg.ServiceRate = pt.mu
			cfg.Service = pt.service
			pred := mustPredict(t, cfg)
			var sum, sumSq float64
			for r := 0; r < reps; r++ {
				run := cfg
				run.Stream = uint64(r)
				res := mustSim(t, run)
				sum += res.MeanWait
				sumSq += res.MeanWait * res.MeanWait
			}
			mean := sum / reps
			sd := math.Sqrt((sumSq - reps*mean*mean) / (reps - 1))
			halfWidth := 2.262 * sd / math.Sqrt(reps) // t_{0.975, 9}
			if halfWidth <= 0 {
				t.Fatalf("degenerate CI half-width %v; replications not independent?", halfWidth)
			}
			if diff := math.Abs(mean - pred.MeanWait); diff > halfWidth {
				t.Errorf("mean wait %.5f vs P-K %.5f: |diff| %.5f exceeds 95%% CI half-width %.5f",
					mean, pred.MeanWait, diff, halfWidth)
			}
		})
	}
}
