package busnet

import (
	"reflect"
	"runtime"
	"strings"
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
// leaves its engine, RNG, fabric and lowered config in the replication
// pool, so the lock measures a warm worker: what remains is the Results
// a caller keeps (the Results block, per-bus utilization, grants,
// diagnostics, and with quantiles the histogram snapshots and their
// quantile blocks). A run that builds its engine and fabric afresh took 69
// allocations (Quantiles off) and 75 (on); the flat engine before that,
// 88 and 94.
//
// The shaped cases pin where run state lives: Fabric.Init keeps each
// segment's sources, service distribution and arbiters in recycled
// memory and reuses them, reset, while the specs and rates are
// unchanged, so a run of the same shape builds none of them. Building
// a source and service distribution per run took 6 allocations for
// Poisson (10 with quantiles) and 21 for MMPP2's 16 sources; a fresh
// fixed-priority arbiter per run, 7. Explicit weights add nothing: the
// lowering parses them into the pooled config's previous vector, and
// the recycled weighted arbiter copies that into its own. Parsing them
// into a fresh vector on every replication took 5.
func TestEvaluateReplicationAllocs(t *testing.T) {
	skipUnderRace(t)
	for _, tt := range []struct {
		name   string
		mutate func(*Config)
		limit  float64
	}{
		{"poisson", func(*Config) {}, 4},
		{"poisson quantiles", func(c *Config) { c.Quantiles = true }, 8},
		{"mmpp2", func(c *Config) { c.Traffic = RareBurstMMPP2(0.05, 8, 50, 0.1) }, 4},
		{"weighted round-robin", func(c *Config) {
			c.Arbiter = WeightedRoundRobin.String()
			c.Weights = "4,2" + strings.Repeat(",1", 14)
		}, 4},
		{"weighted round-robin, default weights", func(c *Config) { c.Arbiter = WeightedRoundRobin.String() }, 4},
		{"fixed priority", func(c *Config) { c.Arbiter = FixedPriority.String() }, 4},
	} {
		cfg := optimizerJob()
		tt.mutate(&cfg)
		var err error
		got := testing.AllocsPerRun(20, func() { _, err = Evaluate(cfg, BackendSim) })
		if err != nil {
			t.Fatal(err)
		}
		if got > tt.limit {
			t.Errorf("%s: Evaluate allocates %v times per replication, limit %v", tt.name, got, tt.limit)
		}
	}
	// Validating builds no run state, so it allocates nothing for any
	// traffic, service or arbiter kind that needs no parsed weight
	// vector. It took 17 allocations for MMPP2 at N = 16 when validating
	// built one source per station.
	for _, tt := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"poisson", func(*Config) {}},
		{"mmpp2", func(c *Config) { c.Traffic = RareBurstMMPP2(0.05, 8, 50, 0.1) }},
		{"onoff", func(c *Config) { c.Traffic = OnOffTraffic(0.5, 0.25, 100) }},
		{"deterministic traffic", func(c *Config) { c.Traffic = DeterministicTraffic() }},
		{"deterministic service", func(c *Config) { c.Service = DeterministicService() }},
		{"erlang", func(c *Config) { c.Service = ErlangService(4) }},
		{"hyperexp", func(c *Config) { c.Service = HyperexpService(4) }},
		{"fixed-priority", func(c *Config) { c.Arbiter = FixedPriority.String() }},
		{"weighted round-robin", func(c *Config) { c.Arbiter = WeightedRoundRobin.String() }},
	} {
		cfg := DefaultConfig()
		cfg.Processors = 16
		tt.mutate(&cfg)
		var err error
		got := testing.AllocsPerRun(20, func() { err = cfg.Validate() })
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		if got != 0 {
			t.Errorf("validating a %s config allocates %v times, want 0", tt.name, got)
		}
	}
	// Explicit weights cost the parsed vector alone: ParseWeights cuts
	// the string in place. Splitting it first took 2.
	cfg := DefaultConfig()
	cfg.Processors = 16
	cfg.Arbiter = WeightedRoundRobin.String()
	cfg.Weights = "4,2" + strings.Repeat(",1", 14)
	var err error
	if got := testing.AllocsPerRun(20, func() { err = cfg.Validate() }); err != nil || got > 1 {
		t.Errorf("validating explicit weights allocates %v times (err %v), limit 1", got, err)
	}
}

// A model backend refuses what it cannot model at a cost independent of
// N: validation builds no run state. Refusing MMPP2 traffic at
// N = 10⁶ took about 1 000 000 allocations and 80 MB when validating
// built one source per station.
func TestModelBackendRefusalCostsNothingPerStation(t *testing.T) {
	skipUnderRace(t)
	cfg := DefaultConfig()
	cfg.Processors = 1_000_000
	cfg.Traffic = RareBurstMMPP2(1e-7, 8, 50, 0.1)
	for _, b := range []Backend{BackendAnalytic, BackendFluid} {
		var err error
		got := testing.AllocsPerRun(5, func() { _, err = Evaluate(cfg, b) })
		if err == nil {
			t.Fatalf("%s backend accepted MMPP2 traffic", b)
		}
		if limit := 8.0; got > limit {
			t.Errorf("%s backend refuses MMPP2 at N = 10⁶ in %v allocations, limit %v", b, got, limit)
		}
	}
}

// TestQuantileReplicationBytes bounds the bytes a warm replication
// allocates at the job shape above, with quantiles off and on. Off, it
// is the Results block with the segment's HopResult inline, per-bus
// utilization, grants and diagnostics: 440 B, where a Results echoing
// its Config made it 648 B. On, its wait and response histograms leave
// the fabric as snapshots of the buckets they span, carved from one
// backing array: at this shape about 160 of the 1,024. Copying both
// histograms whole made the replication allocate 19 672 B, 18 944 of
// them the two copies.
func TestQuantileReplicationBytes(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tt := range []struct {
		quantiles bool
		limit     float64
	}{
		{false, 512},
		{true, 6 * 1024},
	} {
		cfg := optimizerJob()
		cfg.Quantiles = tt.quantiles
		run := func() {
			if _, err := Evaluate(cfg, BackendSim); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the replication pool
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if perRun > tt.limit {
			t.Errorf("quantiles %v: a warm replication allocates %.0f B, limit %.0f B", tt.quantiles, perRun, tt.limit)
		}
	}
}

// TestTopologyReplicationBytes bounds the bytes a warm replication of
// the bridged job shape below allocates: the results it returns, since
// the lowering writes into the pooled replication's config and the run
// state is recycled. Echoing the normalized topology in every
// replication's results made it allocate 1 312 B (752 B without), and
// lowering the topology afresh and building its sources and service
// distributions 1 904 B.
func TestTopologyReplicationBytes(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	top := bridgedJob(t)
	run := func() {
		if _, err := EvaluateTopology(top, BackendSim); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the replication pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if limit := 896.0; perRun > limit {
		t.Errorf("a warm topology replication allocates %.0f B, limit %.0f B", perRun, limit)
	}
}

// TestEvaluateTopologyReplicationAllocs is the same lock for a bridged
// fabric, the job shape feeding a transit segment, on a warm worker.
// What remains is what EvaluateTopology returns: the results block, the
// hop and flow slices, one block of per-bus utilizations and one of
// grants for every segment, the diagnostics, and with quantiles one
// header block and one bucket array for every histogram snapshot.
// Echoing the normalized topology, a Nodes copy per replication, took
// 7, and 9 with quantiles. Lowering the topology afresh (segment
// and link arrays, the name index, routes, the acyclicity check's
// scratch) and building each segment's sources and service distribution
// took 17, and 23 with quantiles, when each segment and flow took its
// own snapshots; validating the lowered fabric a second time in
// Fabric.Init 19, lowering it a second time to validate 23, and
// building the engine and fabric afresh 101.
func TestEvaluateTopologyReplicationAllocs(t *testing.T) {
	skipUnderRace(t)
	top := bridgedJob(t)
	quantiles := top
	quantiles.Quantiles = true
	for _, tt := range []struct {
		name  string
		top   Topology
		limit float64
	}{
		{"tandem", top, 6},
		{"tandem quantiles", quantiles, 8},
	} {
		var err error
		got := testing.AllocsPerRun(20, func() { _, err = EvaluateTopology(tt.top, BackendSim) })
		if err != nil {
			t.Fatal(err)
		}
		if got > tt.limit {
			t.Errorf("%s: EvaluateTopology allocates %v times per replication, limit %v", tt.name, got, tt.limit)
		}
	}
}

// bridgedJob is the optimizer's job shape feeding a transit segment
// through a 2-deep bridge: cpu (N = 16, λ = 0.05, buffered depth 2) →
// mem, horizon 200.
func bridgedJob(t *testing.T) Topology {
	t.Helper()
	top, err := NewTopology().
		BufferedSourceNode("cpu", 16, 0.05, 1, 2, "mem").
		TransitNode("mem", 1).
		Bridge("cpu", "mem", 2).
		Horizon(200).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestOptimizerJobOverflow locks the timing wheel's overflow traffic
// at the optimizer's job shape (N = 16, λ = 0.05, buffered depth 2,
// horizon 200): on each of ten replications, at most 1% of the fired
// events were pushed beyond the wheel's window. Think times of mean 20
// dominate the pending set. A window anchored where it last drained
// overflowed 17–42 times per replication, against 281–348 fired events.
func TestOptimizerJobOverflow(t *testing.T) {
	cfg := optimizerJob()
	for stream := range uint64(10) {
		cfg.Stream = stream
		ev, err := Evaluate(cfg, BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		c := ev.Diagnostics.Engine
		if 100*c.WheelOverflow > c.Fired {
			t.Errorf("stream %d: %d of %d fired events overflowed the wheel's window, limit 1%%", stream, c.WheelOverflow, c.Fired)
		}
	}
}

// optimizerJob is the optimize scenario's job shape: N = 16,
// λ = 0.05, buffered depth 2, horizon 200, warmup 20.
func optimizerJob() Config {
	cfg := DefaultConfig()
	cfg.Processors = 16
	cfg.ThinkRate = 0.05
	cfg.Mode = ModeBuffered
	cfg.BufferCap = 2
	cfg.Horizon = 200
	cfg.Warmup = 20
	return cfg
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
