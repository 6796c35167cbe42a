package busnet

import (
	"encoding/json"
	"math"
	"testing"
)

// The servdist subsystem's backward-compatibility contract: an explicit
// exponential service spec (and the zero-value spec) runs the exact
// trajectory of the pre-subsystem engine — same draws, same results.
func TestExponentialServiceBitIdenticalToDefault(t *testing.T) {
	base := DefaultConfig().AtHorizon(20_000)
	base.Seed = 42
	base.Mode = ModeBuffered
	base.BufferCap = Infinite
	base.Processors = 16
	base.ThinkRate = 0.05

	def := mustSim(t, base)
	explicit := base
	explicit.Service = ExponentialService()
	expl := mustSim(t, explicit)
	zero := base
	zero.Service = Service{}
	z := mustSim(t, zero)
	for name, got := range map[string]Results{"explicit": expl, "zero-value": z} {
		if got.MeanWait != def.MeanWait || got.Completions != def.Completions ||
			got.Utilization != def.Utilization || got.MaxWait != def.MaxWait {
			t.Errorf("%s exponential service diverged from the default trajectory", name)
		}
	}
	if got := zero.Normalized().Service; got != ExponentialService() {
		t.Errorf("zero-value service normalized to %+v, want exponential", got)
	}
}

func TestServiceJSONRoundTrip(t *testing.T) {
	for _, svc := range []Service{
		ExponentialService(),
		DeterministicService(),
		ErlangService(4),
		HyperexpService(4.5),
	} {
		cfg := DefaultConfig()
		cfg.Mode = ModeBuffered
		cfg.BufferCap = Infinite
		cfg.Service = svc
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", svc, err)
		}
		canon := cfg.Normalized()
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatal(err)
		}
		if back != canon {
			t.Errorf("service %+v did not survive the JSON round trip:\n%s", svc, blob)
		}
		if back.Service != svc {
			t.Errorf("service came back as %+v, want %+v", back.Service, svc)
		}
	}
}

func TestInvalidServiceRejected(t *testing.T) {
	for name, svc := range map[string]Service{
		"unknown-kind":  {Kind: "pareto"},
		"erlang-zero-k": ErlangService(0),
		"hyperexp-low":  HyperexpService(0.5),
		"stray-shape":   {Kind: ServiceExponential, Shape: 2},
	} {
		cfg := DefaultConfig()
		cfg.Service = svc
		if _, err := Evaluate(cfg, BackendSim); err == nil {
			t.Errorf("%s: Evaluate accepted %+v", name, svc)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, svc)
		}
	}
}

// Analytic dispatch for non-exponential service: M/G/1 Pollaczek–
// Khinchine in the single-bus buffered-infinite regime, clean refusal
// everywhere else.
func TestPredictDispatchesToPK(t *testing.T) {
	base := DefaultConfig()
	base.Mode = ModeBuffered
	base.BufferCap = Infinite
	base.Processors = 16
	base.ThinkRate = 0.05 // ρ = 0.8

	mm1 := mustPredict(t, base)

	det := base
	det.Service = DeterministicService()
	md1 := mustPredict(t, det)
	if !almost(md1.MeanWait, mm1.MeanWait/2) {
		t.Errorf("M/D/1 wait %v, want half of M/M/1's %v", md1.MeanWait, mm1.MeanWait)
	}

	erl := base
	erl.Service = ErlangService(4)
	e4 := mustPredict(t, erl)
	if !almost(e4.MeanWait, mm1.MeanWait*(1+0.25)/2) {
		t.Errorf("M/E4/1 wait %v, want (1+1/4)/2 of M/M/1's %v", e4.MeanWait, mm1.MeanWait)
	}

	h2 := base
	h2.Service = HyperexpService(4)
	mh2 := mustPredict(t, h2)
	if !almost(mh2.MeanWait, mm1.MeanWait*(1+4)/2) {
		t.Errorf("M/H2/1 wait %v, want (1+4)/2 of M/M/1's %v", mh2.MeanWait, mm1.MeanWait)
	}

	// Refusals: every regime without an exact M/G/1 form.
	refusals := map[string]func(*Config){
		"unbuffered":    func(c *Config) { c.Mode = ModeUnbuffered },
		"finite-buffer": func(c *Config) { c.BufferCap = 4 },
		"multi-bus":     func(c *Config) { c.Buses = 4 },
		"bursty-traffic": func(c *Config) {
			c.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
		},
	}
	for name, mutate := range refusals {
		cfg := det
		mutate(&cfg)
		if _, err := Evaluate(cfg, BackendAnalytic); err == nil {
			t.Errorf("%s with deterministic service: the analytic backend attached a closed form", name)
		}
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

// Quantiles ride along on every run: ordered percentiles consistent
// with the tally's extrema, responses dominating waits, and — under
// deterministic service — a response floor of one full service time.
func TestRunReportsLatencyQuantiles(t *testing.T) {
	cfg := DefaultConfig().AtHorizon(20_000)
	cfg.Seed = 7
	cfg.Mode = ModeBuffered
	cfg.BufferCap = Infinite
	cfg.Processors = 16
	cfg.ThinkRate = 0.05
	cfg.Service = DeterministicService()
	cfg.Quantiles = true
	res := mustSim(t, cfg)
	w := res.WaitQuantiles
	if !(w.P50 <= w.P90 && w.P90 <= w.P95 && w.P95 <= w.P99) {
		t.Fatalf("wait quantiles not monotone: %+v", w)
	}
	if w.P99 > res.MaxWait {
		t.Fatalf("wait p99 %v above MaxWait %v", w.P99, res.MaxWait)
	}
	r := res.ResponseQuantiles
	for name, pair := range map[string][2]float64{
		"p50": {w.P50, r.P50}, "p99": {w.P99, r.P99},
	} {
		if pair[1] < pair[0] {
			t.Errorf("response %s %v below wait %s %v", name, pair[1], name, pair[0])
		}
	}
	// Deterministic service: every response ≥ 1/μ = 1, within the
	// histogram's bucket resolution.
	if r.P50 < 0.95 {
		t.Errorf("deterministic-service response p50 = %v, want ≥ ~1 service time", r.P50)
	}
	if res.WaitHist == nil || res.WaitHist.Count() == 0 {
		t.Fatal("wait histogram missing from Results")
	}
	if res.RespHist.Count() != res.Completions {
		t.Fatalf("response histogram has %d samples, want one per completion %d",
			res.RespHist.Count(), res.Completions)
	}
	// The p50 estimate must sit near the tally mean's scale — a gross
	// unit error (e.g. log-bucket misindexing) would throw it orders of
	// magnitude off.
	if res.MeanWait > 0 && (w.P50 > res.MeanWait*10 || w.P99 < res.MeanWait/10) {
		t.Fatalf("quantiles inconsistent with mean wait %v: %+v", res.MeanWait, w)
	}
}
