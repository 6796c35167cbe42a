package busnet

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// Acceptance criterion: identical Results across two runs with the same
// seed, for both regimes and both arbiters — and a different seed must
// actually change the outcome.
func TestRunDeterminism(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unbuffered/round-robin", func(c *Config) {}},
		{"unbuffered/fixed-priority", func(c *Config) { c.Arbiter = FixedPriority.String() }},
		{"buffered-finite", func(c *Config) { c.Mode, c.BufferCap = ModeBuffered, 4 }},
		{"buffered-infinite", func(c *Config) { c.Mode, c.BufferCap = ModeBuffered, Infinite }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Processors = 16
			cfg.ThinkRate = 0.05
			cfg.Seed = 42
			cfg.Horizon, cfg.Warmup = 5000, 500
			v.mutate(&cfg)
			first, second := mustSim(t, cfg), mustSim(t, cfg)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("same seed, different Results:\n%+v\nvs\n%+v", first, second)
			}
			if first.Completions == 0 {
				t.Fatal("run produced no completions")
			}

			cfg.Seed = 43
			reseeded := mustSim(t, cfg)
			if first.Completions == reseeded.Completions && first.MeanWait == reseeded.MeanWait {
				t.Fatal("different seed reproduced the same trajectory; RNG not wired through")
			}
		})
	}
}

func TestAtHorizonPreservesWarmupFraction(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(5000)
	if cfg.Horizon != 5000 || cfg.Warmup != 500 {
		t.Fatalf("AtHorizon(5000) = horizon %v warmup %v, want 5000/500", cfg.Horizon, cfg.Warmup)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("rescaled config must stay valid: %v", err)
	}
	zero := Config{}.AtHorizon(100)
	if zero.Horizon != 100 || zero.Warmup != 0 {
		t.Fatalf("AtHorizon on a zero config = %+v, want horizon 100, warmup 0", zero)
	}
}

// A Config is a value: a run leaves the caller's copy as it was, empty
// mode/arbiter strings normalize, and a literal runs exactly as its
// normalized spelling.
func TestConfigIsImmutableValue(t *testing.T) {
	lit := Config{Processors: 4, ThinkRate: 0.1, ServiceRate: 1, Horizon: 1000}
	before := lit
	res := mustSim(t, lit)
	if lit != before {
		t.Fatalf("a run changed the caller's Config: %+v, was %+v", lit, before)
	}
	canon := lit.Normalized()
	if canon.Mode != ModeUnbuffered || canon.Arbiter != RoundRobin.String() {
		t.Fatalf("empty mode/arbiter not normalized: %+v", canon)
	}
	if !reflect.DeepEqual(res, mustSim(t, canon)) {
		t.Fatal("a literal and its normalized spelling ran different trajectories")
	}
}

// Streams of one seed must be independent (different trajectories) yet
// individually deterministic — the substructure replications build on.
func TestStreamsAreIndependentReplications(t *testing.T) {
	run := func(stream uint64) Results {
		cfg := DefaultConfig()
		cfg.Seed = 42
		cfg.Stream = stream
		cfg.Horizon, cfg.Warmup = 5000, 500
		return mustSim(t, cfg)
	}
	s0, s1 := run(0), run(1)
	if s0.MeanWait == s1.MeanWait && s0.Completions == s1.Completions {
		t.Fatal("streams 0 and 1 produced identical trajectories; substreams not wired through")
	}
	if again := run(1); !reflect.DeepEqual(s1, again) {
		t.Fatal("same (seed, stream) produced different Results")
	}
}

// Every invalid field is refused before a simulation starts.
func TestNewRejectsInvalidOptions(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero processors", func(c *Config) { c.Processors = 0 }},
		{"negative buses", func(c *Config) { c.Buses = -2 }},
		{"negative think rate", func(c *Config) { c.ThinkRate = -0.1 }},
		{"zero service rate", func(c *Config) { c.ServiceRate = 0 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"warmup past horizon", func(c *Config) { c.Horizon, c.Warmup = 100, 100 }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"unknown arbiter", func(c *Config) { c.Arbiter = ArbiterKind(99).String() }},
		{"unknown traffic kind", func(c *Config) { c.Traffic = Traffic{Kind: "pareto"} }},
		{"mmpp2 missing switches", func(c *Config) { c.Traffic = Traffic{Kind: TrafficMMPP2, Rate0: 1, Rate1: 2} }},
		{"onoff duty out of range", func(c *Config) { c.Traffic = OnOffTraffic(1, 1.5, 10) }},
		{"poisson with stray traffic params", func(c *Config) { c.Traffic = Traffic{Kind: TrafficPoisson, BurstRate: 2} }},
		{"deterministic zero think rate", func(c *Config) { c.ThinkRate, c.Traffic = 0, DeterministicTraffic() }},
		{"weight count mismatch", func(c *Config) {
			c.Processors, c.Arbiter, c.Weights = 4, WeightedRoundRobin.String(), "1,2"
		}},
		{"zero weight", func(c *Config) {
			c.Processors, c.Arbiter, c.Weights = 2, WeightedRoundRobin.String(), "1,0"
		}},
		{"NaN warmup", func(c *Config) { c.Warmup = math.NaN() }},
		{"NaN horizon", func(c *Config) { c.Horizon = math.NaN() }},
		{"infinite horizon", func(c *Config) { c.Horizon = math.Inf(1) }},
		{"infinite think rate", func(c *Config) { c.ThinkRate = math.Inf(1) }},
		{"infinite service rate", func(c *Config) { c.ServiceRate = math.Inf(1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Evaluate(cfg, BackendSim); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestConfigEchoAndDefaults(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(2000)
	cfg.Processors = 16
	cfg.Mode, cfg.BufferCap = ModeBuffered, 4
	cfg.Seed = 42
	echo := cfg.Normalized()
	if echo.Processors != 16 || echo.BufferCap != 4 || echo.Seed != 42 {
		t.Fatalf("config echo mismatch: %+v", echo)
	}
	if echo.Buses != 1 {
		t.Fatalf("default buses = %d, want 1", echo.Buses)
	}
	if res := mustSim(t, cfg); len(res.BusUtilization) != 1 || len(res.Grants) != 16 || res.Name != "bus" {
		t.Fatalf("run of %+v reported hop %q, %d buses and %d claimants", echo, res.Name, len(res.BusUtilization), len(res.Grants))
	}
	cfg.Buses = 4
	if got := mustSim(t, cfg).BusUtilization; len(got) != 4 {
		t.Fatalf("Buses = 4 ran %d buses", len(got))
	}
	if echo.Mode != "buffered" || echo.Arbiter != "round-robin" {
		t.Fatalf("mode/arbiter = %q/%q, want buffered/round-robin", echo.Mode, echo.Arbiter)
	}
	if def := DefaultConfig(); def.Warmup != def.Horizon/10 {
		t.Fatalf("default warmup = %v, want horizon/10 = %v", def.Warmup, def.Horizon/10)
	}
}

func TestFixedPriorityStarvesUnderSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThinkRate = 1 // offered load 8: the bus cannot keep up
	cfg.Mode, cfg.BufferCap = ModeBuffered, 2
	cfg.Arbiter = FixedPriority.String()
	cfg.Seed = 7
	cfg.Horizon, cfg.Warmup = 5000, 500
	res := mustSim(t, cfg)
	if res.Grants[0] < 4*res.Grants[7] {
		t.Fatalf("fixed priority under saturation: grants[0]=%d not ≫ grants[7]=%d",
			res.Grants[0], res.Grants[7])
	}
	cfg.Arbiter = RoundRobin.String()
	rr := mustSim(t, cfg)
	min, max := rr.Grants[0], rr.Grants[0]
	for _, g := range rr.Grants {
		if g < min {
			min = g
		}
		if g > max {
			max = g
		}
	}
	if float64(max) > 1.2*float64(min) {
		t.Fatalf("round-robin under saturation should be fair: grants %v", rr.Grants)
	}
}

// Configs with traffic shapes and weights must survive a JSON round
// trip unchanged — the sweep engine and CLI serialize them into every
// report — and the deserialized config must run bit-identically.
func TestTrafficAndWeightsJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(4000)
	cfg.Processors = 4
	cfg.Traffic = MMPP2Traffic(0.05, 0.8, 0.01, 0.09)
	cfg.Arbiter = WeightedRoundRobin.String()
	cfg.Weights = "4,2,1,1"
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != cfg { // Config is comparable — shapes and weights included
		t.Fatalf("round trip changed the config:\n%+v\nvs\n%+v", back, cfg)
	}
	if a, b := mustSim(t, cfg), mustSim(t, back); !reflect.DeepEqual(a, b) {
		t.Fatal("deserialized config ran a different trajectory")
	}
	// Old configs without the new fields keep working: the zero traffic
	// value normalizes to poisson.
	var legacy Config
	if err := json.Unmarshal([]byte(`{"processors":2,"think_rate":0.1,"service_rate":1,"horizon":1000}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if got := legacy.Normalized().Traffic.Kind; got != TrafficPoisson {
		t.Fatalf("legacy config traffic normalized to %q, want %q", got, TrafficPoisson)
	}
	mustSim(t, legacy)
}

// Weights on a non-weighted arbiter are documented as inert: the run
// must be bit-identical to the same config without them, so grids can
// hold a weight vector fixed while sweeping arbiters.
func TestWeightsInertForOtherArbiters(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(4000)
	cfg.Seed = 42
	with := cfg
	with.Weights = "5,1,1,1,1,1,1,1"
	if a, b := mustSim(t, cfg), mustSim(t, with); !reflect.DeepEqual(a, b) {
		t.Fatal("weights changed a round-robin run; they must be inert off the weighted arbiter")
	}
	// But malformed weights are rejected even when inert.
	bad := cfg
	bad.Weights = "1,x,3"
	if _, err := Evaluate(bad, BackendSim); err == nil {
		t.Fatal("malformed weights accepted on a round-robin config")
	}
}

// Weighted round-robin through the public API: saturated grant shares
// track the weights, and the default (empty) weight vector is exactly
// round-robin.
func TestWeightedRoundRobinFacade(t *testing.T) {
	// Buffers deeper than the largest weight keep every interface
	// supplied through its whole grant window; a shallower buffer would
	// starve the heavy station mid-window and flatten the shares.
	cfg := DefaultConfig()
	cfg.Processors = 4
	cfg.ThinkRate = 2 // saturating
	cfg.Mode, cfg.BufferCap = ModeBuffered, 8
	cfg.Arbiter, cfg.Weights = WeightedRoundRobin.String(), "6,2,1,1"
	cfg.Seed = 9
	cfg.Horizon, cfg.Warmup = 20_000, 2_000
	res := mustSim(t, cfg)
	total := uint64(0)
	for _, g := range res.Grants {
		total += g
	}
	for i, w := range []float64{6, 2, 1, 1} {
		share := float64(res.Grants[i]) / float64(total)
		want := w / 10
		if math.Abs(share-want) > 0.02 {
			t.Errorf("processor %d share %.3f, want %.3f ± 0.02 (grants %v)", i, share, want, res.Grants)
		}
	}

	// Empty weights on the weighted arbiter ≡ plain round-robin, grant
	// for grant: identical Results.
	base := DefaultConfig().AtHorizon(5000)
	base.Seed = 42
	weighted := base
	weighted.Arbiter = WeightedRoundRobin.String()
	if a, b := mustSim(t, base), mustSim(t, weighted); !reflect.DeepEqual(a, b) {
		t.Fatal("weighted round-robin with default weights diverged from round-robin")
	}
}

func TestPredictRejectsNonPoissonTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traffic = MMPP2Traffic(0.1, 0.1, 0.01, 0.01)
	if _, err := Evaluate(cfg, BackendAnalytic); err == nil {
		t.Fatal("the analytic backend attached a Poisson closed form to MMPP2 traffic")
	}
	cfg.Traffic = DeterministicTraffic()
	if _, err := Evaluate(cfg, BackendAnalytic); err == nil {
		t.Fatal("the analytic backend attached a Poisson closed form to deterministic traffic")
	}
}

// mustSim simulates cfg with Evaluate's discrete-event backend, fatally
// on error.
func mustSim(t *testing.T, cfg Config) Results {
	t.Helper()
	ev, err := Evaluate(cfg, BackendSim)
	if err != nil {
		t.Fatal(err)
	}
	return *ev.Results
}
