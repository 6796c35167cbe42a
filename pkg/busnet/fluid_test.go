package busnet

import (
	"math"
	"strings"
	"testing"
)

func TestParseBackend(t *testing.T) {
	for in, want := range map[string]Backend{
		"":         BackendSim,
		"sim":      BackendSim,
		"analytic": BackendAnalytic,
		"fluid":    BackendFluid,
	} {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBackend("montecarlo"); err == nil {
		t.Error("ParseBackend accepted an unknown backend")
	}
}

// The fluid model is a mean-field limit of the Poisson/exponential
// dynamics; every assumption it bakes in must be a clean refusal, not a
// silently wrong number.
func TestFluidPredictDomainRefusals(t *testing.T) {
	base := DefaultConfig()
	base.Processors = 64
	base.Buses = 4
	base.ThinkRate = 0.1

	if _, err := Evaluate(base, BackendFluid); err != nil {
		t.Fatalf("in-domain config refused: %v", err)
	}

	refusals := map[string]func(*Config){
		"bursty-traffic":  func(c *Config) { c.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05) },
		"non-exp-service": func(c *Config) { c.Service = DeterministicService() },
		"fixed-priority":  func(c *Config) { c.Arbiter = FixedPriority.String() },
		"weighted-rr": func(c *Config) {
			c.Processors = 4
			c.Arbiter = WeightedRoundRobin.String()
			c.Weights = "4,2,1,1"
		},
		"infinite-buffer": func(c *Config) {
			c.Mode = ModeBuffered
			c.BufferCap = Infinite
		},
	}
	for name, mutate := range refusals {
		cfg := base
		mutate(&cfg)
		if _, err := Evaluate(cfg, BackendFluid); err == nil {
			t.Errorf("%s: the fluid backend produced a number outside its domain", name)
		}
	}

	// Uniform WRR weights are exact round-robin in disguise: in-domain.
	uni := base
	uni.Processors = 4
	uni.Arbiter = WeightedRoundRobin.String()
	uni.Weights = "2,2,2,2"
	if _, err := Evaluate(uni, BackendFluid); err != nil {
		t.Errorf("uniform WRR weights refused: %v", err)
	}
}

// In the regimes where the repo already has exact closed forms, the
// fluid stationary solve must land on them: the machine-repairman /
// M/M/m//N fixed point is shared between both models once N is large
// enough (or the system is deep enough in saturation) that the O(1/N)
// mean-field error vanishes.
func TestFluidMatchesExactClosedForms(t *testing.T) {
	cases := []struct {
		name      string
		n, m      int
		thinkRate float64
		tol       float64
	}{
		// Single bus: the paper's machine-repairman model. Deep
		// saturation, where the fluid fixed point is the exact balance.
		{"repairman/N=64", 64, 1, 0.1, 1e-9},
		// Multi-bus M/M/m//N, moderately and deeply saturated.
		{"mmmn/N=64/m=4", 64, 4, 0.1, 1e-2},
		{"mmmn/N=256/m=4", 256, 4, 0.1, 1e-9},
		{"mmmn/N=1024/m=4", 1024, 4, 0.1, 1e-9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Processors = tc.n
			cfg.Buses = tc.m
			cfg.ThinkRate = tc.thinkRate

			exact, fl := mustPredict(t, cfg), mustFluid(t, cfg)
			for metric, pair := range map[string][2]float64{
				"utilization": {fl.Utilization, exact.Utilization},
				"throughput":  {fl.Throughput, exact.Throughput},
				"wait":        {fl.MeanWait, exact.MeanWait},
				"qlen":        {fl.MeanQueueLen, exact.MeanQueueLen},
				"response":    {fl.MeanResponse, exact.MeanResponse},
			} {
				if e := relErr(pair[0], pair[1]); e > tc.tol {
					t.Errorf("%s: fluid %v vs exact %v (rel err %.2e > %.0e)",
						metric, pair[0], pair[1], e, tc.tol)
				}
			}
		})
	}
}

// Buffered-finite: the repo's closed form aggregates all stations into
// one M/M/m/K queue, while the fluid model keeps per-station buffer
// levels; they agree exactly on the flow quantities (throughput and
// bus utilization are pinned by the same capacity constraint) but
// differ by design on waiting time, so only the flow side is compared.
func TestFluidMatchesBufferedFlowClosedForm(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, m, cap int
		thinkRate float64
	}{
		{"single-bus/a=2", 64, 1, 4, 2.0 / 64},
		{"single-bus/a=8", 64, 1, 4, 8.0 / 64},
		{"multi-bus", 128, 4, 4, 8.0 / 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Processors = tc.n
			cfg.Buses = tc.m
			cfg.ThinkRate = tc.thinkRate
			cfg.Mode = ModeBuffered
			cfg.BufferCap = tc.cap

			exact, fl := mustPredict(t, cfg), mustFluid(t, cfg)
			if e := relErr(fl.Throughput, exact.Throughput); e > 1e-2 {
				t.Errorf("throughput: fluid %v vs exact %v (rel err %.2e)",
					fl.Throughput, exact.Throughput, e)
			}
			if e := relErr(fl.Utilization, exact.Utilization); e > 1e-2 {
				t.Errorf("utilization: fluid %v vs exact %v (rel err %.2e)",
					fl.Utilization, exact.Utilization, e)
			}
		})
	}
}

// The mean-field approximation error is O(1/N): holding the
// capacity-per-station ratio c = m/N and the per-station load fixed
// while doubling N must drive the fluid-vs-exact gap down, and near
// the critical load (where finite-N fluctuations matter most) the gap
// is visible at small N and gone at large N.
func TestFluidGapClosesAsN(t *testing.T) {
	const lambda = 0.08 // per-station offered rate; λN/m = 1.28 > 1, near-critical
	var prev float64
	var gaps []float64
	for _, n := range []int{32, 64, 128, 256, 512} {
		cfg := DefaultConfig()
		cfg.Processors = n
		cfg.Buses = n / 16 // c = 1/16 held fixed
		cfg.ThinkRate = lambda

		exact, fl := mustPredict(t, cfg), mustFluid(t, cfg)
		gap := relErr(fl.MeanWait, exact.MeanWait)
		gaps = append(gaps, gap)
		if len(gaps) > 1 && gap >= prev {
			t.Errorf("N=%d: wait gap %.3e did not shrink from %.3e", n, gap, prev)
		}
		prev = gap
	}
	if gaps[0] > 0.25 {
		t.Errorf("N=32 gap %.3e implausibly large for O(1/N) scaling", gaps[0])
	}
	if last := gaps[len(gaps)-1]; last > 1e-3 {
		t.Errorf("N=512 gap %.3e has not closed", last)
	}
}

// The acceptance bar from the issue: fluid predictions fall within the
// DES 95% confidence intervals at N ∈ {64, 256, 1024}, modulo the
// documented O(1/N) model error — the CI half-width is widened by a
// c/N relative allowance, which dominates only at N=64 and dwindles
// below the Monte-Carlo noise by N=1024.
func TestFluidWithinDESConfidenceIntervals(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated cross-validation runs are long")
	}
	const (
		reps  = 6
		tCrit = 2.571 // t_{0.975, 5}
	)
	var bufferedWaitGaps []float64
	for _, tc := range []struct {
		name      string
		n         int
		bufferCap int // 0 ⇒ unbuffered
	}{
		{"unbuffered/N=64", 64, 0},
		{"unbuffered/N=256", 256, 0},
		{"unbuffered/N=1024", 1024, 0},
		{"buffered/N=64", 64, 4},
		{"buffered/N=256", 256, 4},
		{"buffered/N=1024", 1024, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig().AtHorizon(200_000)
			cfg.Processors = tc.n
			cfg.Buses = 4
			cfg.ThinkRate = 0.1
			cfg.Seed = 42
			cfg.Warmup = 20_000
			if tc.bufferCap > 0 {
				cfg.Mode = ModeBuffered
				cfg.BufferCap = tc.bufferCap
			}
			fl := mustFluid(t, cfg)

			var wait, util, tput [reps]float64
			for rep := 0; rep < reps; rep++ {
				c := cfg
				c.Stream = uint64(rep)
				res := mustSim(t, c)
				wait[rep], util[rep], tput[rep] = res.MeanWait, res.Utilization, res.Throughput
			}
			contain := func(metric string, pred float64, samples [reps]float64, modelSlack float64) float64 {
				var mean float64
				for _, s := range samples {
					mean += s
				}
				mean /= reps
				var ss float64
				for _, s := range samples {
					ss += (s - mean) * (s - mean)
				}
				half := tCrit * math.Sqrt(ss/(reps-1)) / math.Sqrt(reps)
				allow := half + modelSlack*math.Abs(mean)
				if diff := math.Abs(pred - mean); diff > allow {
					t.Errorf("%s: fluid %v vs DES %v ± %v (+%.1f%% O(1/N) allowance) — outside",
						metric, pred, mean, half, 100*modelSlack)
				}
				return relErr(pred, mean)
			}
			// Flow quantities converge fast: a flat 1% allowance. The
			// wait carries the full finite-size correction: 9/N.
			contain("utilization", fl.Utilization, util, 0.01)
			contain("throughput", fl.Throughput, tput, 0.01)
			gap := contain("wait", fl.MeanWait, wait, 9/float64(tc.n))
			if tc.bufferCap > 0 {
				bufferedWaitGaps = append(bufferedWaitGaps, gap)
			}
		})
	}
	// The buffered wait gap must actually close as N grows — the
	// allowance above is a ceiling, not a licence.
	if len(bufferedWaitGaps) == 3 && !(bufferedWaitGaps[2] < bufferedWaitGaps[0]) {
		t.Errorf("buffered wait gap did not shrink with N: %v", bufferedWaitGaps)
	}
}

// Above MaxSimProcessors the event-driven engine would need more
// memory than any sane host: the simulator must point at the fluid
// backend instead of trying.
func TestFromConfigRejectsHugeN(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processors = MaxSimProcessors + 1
	_, err := Evaluate(cfg, BackendSim)
	if err == nil {
		t.Fatal("the simulator accepted a 10M+-station config")
	}
	if !strings.Contains(err.Error(), "fluid") {
		t.Errorf("rejection does not name the fluid backend: %v", err)
	}
	// The same config is squarely inside the fluid domain.
	if _, err := Evaluate(cfg, BackendFluid); err != nil {
		t.Errorf("the fluid backend refused N just above the sim bound: %v", err)
	}
}

// mustFluid evaluates cfg with the fluid backend, fatally on error.
func mustFluid(t *testing.T, cfg Config) FluidPrediction {
	t.Helper()
	ev, err := Evaluate(cfg, BackendFluid)
	if err != nil {
		t.Fatal(err)
	}
	return *ev.Fluid
}
