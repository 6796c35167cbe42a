package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/busnet/busnet/pkg/busnet"
)

func testBase() busnet.Config {
	cfg := busnet.DefaultConfig().AtHorizon(3000)
	cfg.Seed = 42
	return cfg
}

func TestGridPoints(t *testing.T) {
	g := Grid{
		Base:       testBase(),
		Processors: []int{2, 4, 8},
		ThinkRates: []float64{0.05, 0.1},
		BufferCaps: []int{1, busnet.Infinite},
	}
	g.Base.Mode = busnet.ModeBuffered
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*2*2 {
		t.Fatalf("expanded %d points, want 12", len(points))
	}
	// Fixed axis order: processors outermost, buffer capacity inner.
	if points[0].Processors != 2 || points[0].ThinkRate != 0.05 || points[0].BufferCap != 1 {
		t.Fatalf("unexpected first point: %+v", points[0])
	}
	if points[1].BufferCap != busnet.Infinite {
		t.Fatalf("buffer capacity should vary innermost: %+v", points[1])
	}
	if points[11].Processors != 8 || points[11].ThinkRate != 0.1 {
		t.Fatalf("unexpected last point: %+v", points[11])
	}
	for _, p := range points {
		if p.ServiceRate != g.Base.ServiceRate || p.Seed != 42 || p.Horizon != 3000 {
			t.Fatalf("point did not inherit base values: %+v", p)
		}
	}
}

// The traffic and weights axes expand like every other axis — traffic
// innermost — and each point carries its full shape spec, so a
// burstiness curve is just a grid over Traffic values.
func TestGridTrafficAndWeightsAxes(t *testing.T) {
	base := testBase()
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	g := Grid{
		Base: base,
		Arbiters: []string{
			busnet.RoundRobin.String(),
			busnet.WeightedRoundRobin.String(),
		},
		Weights: []string{"", "4,2,1,1,1,1,1,1"},
		Traffics: []busnet.Traffic{
			busnet.PoissonTraffic(),
			busnet.MMPP2Traffic(0.05, 0.4, 0.01, 0.05),
			busnet.OnOffTraffic(0.5, 0.25, 100),
		},
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*2*3 {
		t.Fatalf("expanded %d points, want 12", len(points))
	}
	// Traffic varies innermost, then weights, then arbiter.
	if points[0].Traffic.Kind != busnet.TrafficPoisson || points[1].Traffic.Kind != busnet.TrafficMMPP2 {
		t.Fatalf("traffic not innermost: %q then %q", points[0].Traffic.Kind, points[1].Traffic.Kind)
	}
	if points[2].Traffic != g.Traffics[2] {
		t.Fatalf("point 2 lost its traffic spec: %+v", points[2].Traffic)
	}
	if points[3].Weights != "4,2,1,1,1,1,1,1" || points[3].Arbiter != "round-robin" {
		t.Fatalf("weights should vary before arbiter: %+v", points[3])
	}
	if points[6].Arbiter != busnet.WeightedRoundRobin.String() {
		t.Fatalf("arbiter should vary outermost of the three: %+v", points[6])
	}
	// An invalid traffic point aborts expansion like any other axis.
	g.Traffics = append(g.Traffics, busnet.Traffic{Kind: "pareto"})
	if _, err := g.Points(); err == nil {
		t.Fatal("grid with an invalid traffic point expanded without error")
	}
}

// Bursty points reduce like Poisson ones — but without an analytic
// overlay, since no closed form exists off the Poisson assumption.
func TestBurstyPointsOmitAnalytic(t *testing.T) {
	base := testBase()
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	res, err := Run(Spec{
		Grid: Grid{
			Base: base,
			Traffics: []busnet.Traffic{
				busnet.PoissonTraffic(),
				busnet.MMPP2Traffic(0.05, 0.4, 0.01, 0.05),
			},
		},
		Replications: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Analytic == nil {
		t.Error("poisson point missing its analytic prediction")
	}
	if res.Points[1].Analytic != nil {
		t.Error("mmpp2 point carries a Poisson closed form; no analytic model applies")
	}
	if !(res.Points[1].Utilization.Mean > 0) {
		t.Error("mmpp2 point did not simulate")
	}
}

// The buses axis expands between processors and think rate, each point
// carries its fabric width, and the reduction averages the per-bus
// utilizations into one entry per bus.
func TestGridBusesAxis(t *testing.T) {
	g := Grid{
		Base:       testBase(),
		Processors: []int{8, 16},
		Buses:      []int{1, 2, 4},
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*3 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	// Buses varies inside processors: {8,1},{8,2},{8,4},{16,1},…
	if points[0].Buses != 1 || points[1].Buses != 2 || points[2].Buses != 4 {
		t.Fatalf("buses not the second-outermost axis: %d,%d,%d",
			points[0].Buses, points[1].Buses, points[2].Buses)
	}
	if points[0].Processors != 8 || points[3].Processors != 16 || points[3].Buses != 1 {
		t.Fatalf("processors not outermost of buses: %+v", points[3])
	}
	res, err := Run(Spec{
		Grid:         Grid{Base: testBase(), Buses: []int{1, 2}},
		Replications: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if len(pt.BusUtilization) != pt.Config.Buses {
			t.Fatalf("buses=%d point has %d per-bus utilizations",
				pt.Config.Buses, len(pt.BusUtilization))
		}
		sum := 0.0
		for _, u := range pt.BusUtilization {
			sum += u
		}
		if mean := sum / float64(pt.Config.Buses); math.Abs(mean-pt.Utilization.Mean) > 1e-9 {
			t.Fatalf("buses=%d: mean per-bus utilization %v != aggregate mean %v",
				pt.Config.Buses, mean, pt.Utilization.Mean)
		}
		if pt.Analytic == nil {
			t.Fatalf("buses=%d point missing its m-server analytic overlay", pt.Config.Buses)
		}
	}
	if !(res.Points[1].MeanWait.Mean < res.Points[0].MeanWait.Mean) {
		t.Fatalf("two buses did not cut the wait: %v vs %v",
			res.Points[1].MeanWait.Mean, res.Points[0].MeanWait.Mean)
	}
	// An invalid fabric width aborts expansion like any other axis.
	if _, err := (Grid{Base: testBase(), Buses: []int{2, -1}}).Points(); err == nil {
		t.Fatal("grid with a negative bus count expanded without error")
	}
}

func TestGridEmptyAxesUseBase(t *testing.T) {
	points, err := Grid{Base: testBase()}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("axis-free grid expanded to %d points, want 1", len(points))
	}
}

func TestGridRejectsInvalidPoint(t *testing.T) {
	g := Grid{Base: testBase(), Processors: []int{4, 0}}
	if _, err := g.Points(); err == nil {
		t.Fatal("grid with an invalid point expanded without error")
	}
}

// The acceptance criterion for the experiment engine: the worker count
// is an execution detail, so sweeps must be bit-exact across any pool
// size — same points, same replication substreams, same reduction.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := Spec{
		Grid: Grid{
			Base:       testBase(),
			Processors: []int{2, 4, 8, 16},
		},
		Replications: 4,
	}
	render := func(workers int) []byte {
		s := spec
		s.Workers = workers
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := render(1)
	if !bytes.Equal(one, render(8)) {
		t.Fatal("workers=1 vs workers=8 produced different JSON for the same spec")
	}
	if !bytes.Equal(one, render(3)) {
		t.Fatal("workers=1 vs workers=3 produced different JSON for the same spec")
	}
}

// Replications within a point must use independent RNG substreams: every
// metric with nonzero randomness should vary across replications, and
// the reduction must see that spread.
func TestReplicationsAreIndependent(t *testing.T) {
	res, err := Run(Spec{
		Grid:         Grid{Base: testBase()},
		Replications: 8,
		Workers:      2,
		KeepRuns:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if len(pt.Runs) != 8 {
		t.Fatalf("KeepRuns retained %d runs, want 8", len(pt.Runs))
	}
	seen := map[float64]bool{}
	for r, run := range pt.Runs {
		cfg := testBase()
		cfg.Stream = uint64(r)
		ev, err := busnet.Evaluate(cfg, busnet.BackendSim)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run, *ev.Results) {
			t.Fatalf("replication %d is not the run of stream %d", r, r)
		}
		seen[run.MeanWait] = true
	}
	if len(seen) < 8 {
		t.Fatalf("only %d distinct mean waits across 8 replications; substreams not independent", len(seen))
	}
	if !(pt.MeanWait.StdDev > 0) || !(pt.MeanWait.CI95 > 0) {
		t.Fatalf("replication spread not reflected in the CI: %+v", pt.MeanWait)
	}
	if pt.MeanWait.Lo >= pt.MeanWait.Mean || pt.MeanWait.Hi <= pt.MeanWait.Mean {
		t.Fatalf("CI bounds do not bracket the mean: %+v", pt.MeanWait)
	}
	if len(pt.Grants) != pt.Config.Processors {
		t.Fatalf("grants has %d entries, want one per processor (%d)", len(pt.Grants), pt.Config.Processors)
	}
	var total, fromRuns uint64
	for _, g := range pt.Grants {
		total += g
	}
	for _, run := range pt.Runs {
		for _, g := range run.Grants {
			fromRuns += g
		}
	}
	if total == 0 || total != fromRuns {
		t.Fatalf("point grants %d != sum over replications %d", total, fromRuns)
	}
}

// The CI must cover the exact analytic value: unbuffered mode is the
// machine-repairman model with no approximation error, so with a long
// horizon the true mean lies inside (a modestly widened) interval.
func TestCICoversAnalyticTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon statistical validation")
	}
	base := testBase().AtHorizon(200_000)
	res, err := Run(Spec{
		Grid:         Grid{Base: base, Processors: []int{4, 16}},
		Replications: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.Analytic == nil {
			t.Fatalf("n=%d: analytic prediction missing", pt.Config.Processors)
		}
		// 2× the half-width keeps the deterministic check robust (a plain
		// 95% CI misses the truth 1 time in 20 by construction).
		for _, m := range []struct {
			name  string
			s     Stat
			truth float64
		}{
			{"utilization", pt.Utilization, pt.Analytic.Utilization},
			{"mean_wait", pt.MeanWait, pt.Analytic.MeanWait},
		} {
			if math.Abs(m.s.Mean-m.truth) > 2*m.s.CI95+1e-9 {
				t.Errorf("n=%d %s: |%v - %v| outside 2×CI %v",
					pt.Config.Processors, m.name, m.s.Mean, m.truth, m.s.CI95)
			}
		}
	}
}

// Analytic predictions attach exactly where a steady state exists.
func TestAnalyticAttachment(t *testing.T) {
	base := testBase()
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	base.Processors = 16
	// ρ = Nλ/μ: 0.48 stable, 1.6 unstable.
	res, err := Run(Spec{
		Grid:         Grid{Base: base, ThinkRates: []float64{0.03, 0.1}},
		Replications: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Analytic == nil {
		t.Error("stable point missing analytic prediction")
	}
	if res.Points[1].Analytic != nil {
		t.Error("unstable point (ρ=1.6) has an analytic prediction; no steady state exists")
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Fatalf("mean = %v, want 3", s.Mean)
	}
	// sd = sqrt(2.5); hw = t(4)=2.776 · sd/√5
	wantSD := math.Sqrt(2.5)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Fatalf("sd = %v, want %v", s.StdDev, wantSD)
	}
	wantHW := 2.776 * wantSD / math.Sqrt(5)
	if math.Abs(s.CI95-wantHW) > 1e-12 {
		t.Fatalf("ci95 = %v, want %v", s.CI95, wantHW)
	}
	if s.Lo != s.Mean-s.CI95 || s.Hi != s.Mean+s.CI95 {
		t.Fatalf("bounds inconsistent: %+v", s)
	}
	if one := summarize([]float64{7}); one.Mean != 7 || one.CI95 != 0 || one.Lo != 7 || one.Hi != 7 {
		t.Fatalf("single replication should collapse to the point estimate: %+v", one)
	}
}

func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 30: 2.042, 35: 2.042, 45: 2.021, 80: 2.000, 120: 1.980, 500: 1.980}
	for df, want := range cases {
		if got := tCritical95(df); got != want {
			t.Errorf("t(%d) = %v, want %v", df, got, want)
		}
	}
	for df := 2; df <= 200; df++ {
		if tCritical95(df) > tCritical95(df-1) {
			t.Fatalf("t must be nonincreasing in df; broke at df=%d", df)
		}
	}
}

// The services axis expands innermost like every other axis, each point
// carrying its full shape spec, so a service-variability curve is just a
// grid over Service values.
func TestGridServicesAxis(t *testing.T) {
	base := testBase()
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	g := Grid{
		Base:       base,
		ThinkRates: []float64{0.05, 0.1},
		Services: []busnet.Service{
			busnet.DeterministicService(),
			busnet.ExponentialService(),
			busnet.HyperexpService(4),
		},
	}
	points, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*3 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	if points[0].Service != busnet.DeterministicService() || points[1].Service != busnet.ExponentialService() {
		t.Fatalf("services not innermost: %+v / %+v", points[0].Service, points[1].Service)
	}
	if points[3].ThinkRate != 0.1 || points[3].Service != busnet.DeterministicService() {
		t.Fatalf("outer axis did not advance: %+v", points[3])
	}
	bad := Grid{Base: base, Services: []busnet.Service{busnet.HyperexpService(0.2)}}
	if _, err := bad.Points(); err == nil {
		t.Fatal("invalid service spec accepted into the grid")
	}
}

// A single replication cannot carry a Student-t interval: the Stat must
// say so explicitly (ci_undefined in JSON) instead of shipping a NaN or
// a fake zero-width interval, on every metric of every point.
func TestSingleReplicationCIMarkedUndefined(t *testing.T) {
	res, err := Run(Spec{
		Grid:         Grid{Base: testBase()},
		Replications: 1,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	for name, s := range map[string]Stat{
		"utilization": pt.Utilization, "throughput": pt.Throughput,
		"mean_wait": pt.MeanWait, "mean_queue_len": pt.MeanQueueLen,
		"mean_response": pt.MeanResponse,
	} {
		if !s.CIUndefined {
			t.Errorf("%s: single-replication Stat not marked ci_undefined: %+v", name, s)
		}
		if s.CI95 != 0 || math.IsNaN(s.CI95) || s.Lo != s.Mean || s.Hi != s.Mean {
			t.Errorf("%s: single-replication interval not collapsed to the point estimate: %+v", name, s)
		}
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("single-replication result does not marshal: %v", err)
	}
	if !bytes.Contains(blob, []byte(`"ci_undefined":true`)) {
		t.Error("JSON output missing the ci_undefined marker")
	}
	if bytes.Contains(blob, []byte("NaN")) || bytes.Contains(blob, []byte("Inf")) {
		t.Error("JSON output contains non-finite values")
	}
	// With two replications the marker must disappear and a real interval
	// appear.
	res2, err := Run(Spec{Grid: Grid{Base: testBase()}, Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := res2.Points[0].MeanWait; s.CIUndefined || !(s.CI95 > 0) {
		t.Errorf("two-replication Stat mis-marked: %+v", s)
	}
	blob2, _ := json.Marshal(res2)
	if bytes.Contains(blob2, []byte("ci_undefined")) {
		t.Error("ci_undefined emitted despite a defined interval (omitempty broken)")
	}
}

// Pooled quantiles: the point's percentiles come from merging every
// replication's histogram, so they must be ordered, bracket the
// replication-mean wait, and respond to service variability in the
// right direction.
func TestPointQuantilesPooledAcrossReplications(t *testing.T) {
	base := testBase()
	base.Mode = busnet.ModeBuffered
	base.BufferCap = busnet.Infinite
	base.Processors = 16
	base.ThinkRate = 0.05
	base.Quantiles = true
	res, err := Run(Spec{
		Grid: Grid{
			Base: base,
			Services: []busnet.Service{
				busnet.DeterministicService(),
				busnet.HyperexpService(8),
			},
		},
		Replications: 4,
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, h2 := res.Points[0], res.Points[1]
	for _, pt := range []PointResult{det, h2} {
		w := pt.WaitQuantiles
		if !(w.P50 <= w.P90 && w.P90 <= w.P95 && w.P95 <= w.P99) {
			t.Fatalf("%+v: pooled wait quantiles not monotone: %+v", pt.Config.Service, w)
		}
		r := pt.ResponseQuantiles
		if r.P99 < w.P99 || r.P50 < w.P50 {
			t.Fatalf("%+v: response quantiles below wait quantiles", pt.Config.Service)
		}
	}
	// Heavy-tailed service must show a fatter pooled tail than
	// deterministic service at the same load.
	if !(h2.WaitQuantiles.P99 > det.WaitQuantiles.P99) {
		t.Errorf("hyperexp p99 %v not above deterministic p99 %v",
			h2.WaitQuantiles.P99, det.WaitQuantiles.P99)
	}
}

// The fluid backend's headline act: a grid reaching N = 10⁶ stations
// evaluates in milliseconds because no events are simulated at all —
// each point is one O(1)-in-N stationary solve.
func TestFluidBackendSweepMillionStations(t *testing.T) {
	base := testBase()
	base.ThinkRate = 0.1
	base.Buses = 4
	g := Grid{
		Base:       base,
		Processors: []int{100, 10_000, 1_000_000},
		Modes:      []string{busnet.ModeUnbuffered, busnet.ModeBuffered},
		BufferCaps: []int{4},
	}

	start := time.Now()
	res, err := Run(Spec{Grid: g, Backend: busnet.BackendFluid})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if perPoint := elapsed / time.Duration(len(res.Points)); perPoint > 50*time.Millisecond {
		t.Errorf("fluid sweep took %v per point, want < 50ms", perPoint)
	}
	if res.Replications != 0 {
		t.Fatalf("model sweep reports %d replications, want 0", res.Replications)
	}
	if len(res.Points) != 6 {
		t.Fatalf("got %d points, want 6", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.Fluid == nil {
			t.Fatalf("point %d: no fluid prediction attached", i)
		}
		if pt.Utilization.Mean <= 0 || pt.Utilization.Mean != pt.Fluid.Utilization {
			t.Errorf("point %d: stat mean %v disagrees with fluid prediction %v",
				i, pt.Utilization.Mean, pt.Fluid.Utilization)
		}
		if !pt.MeanWait.CIUndefined || pt.MeanWait.CI95 != 0 {
			t.Errorf("point %d: model point estimate claims a confidence interval", i)
		}
		if pt.WaitQuantiles != nil {
			t.Errorf("point %d: quantiles attached to a run-free point", i)
		}
	}
}

func TestAnalyticBackendSweep(t *testing.T) {
	g := Grid{Base: testBase(), Processors: []int{4, 16, 64}}
	res, err := Run(Spec{Grid: g, Backend: busnet.BackendAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		if pt.Analytic == nil {
			t.Fatalf("point %d: no analytic prediction", i)
		}
		if pt.Fluid != nil {
			t.Errorf("point %d: analytic backend attached a fluid overlay", i)
		}
		if pt.Throughput.Mean != pt.Analytic.Throughput || !pt.Throughput.CIUndefined {
			t.Errorf("point %d: stats not wired to the analytic prediction", i)
		}
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	g := Grid{Base: testBase()}
	if _, err := Run(Spec{Grid: g, Backend: "montecarlo"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// A fluid sweep with any out-of-domain point fails loudly instead of
// producing a curve with silently missing segments.
func TestFluidBackendRefusalPropagates(t *testing.T) {
	base := testBase()
	base.Traffic = busnet.MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	g := Grid{Base: base, Processors: []int{8, 16}}
	_, err := Run(Spec{Grid: g, Backend: busnet.BackendFluid})
	if err == nil {
		t.Fatal("fluid backend swept bursty traffic without complaint")
	}
	if !strings.Contains(err.Error(), "fluid backend") {
		t.Errorf("error does not identify the fluid backend: %v", err)
	}
}

// Simulated points carry the fluid prediction as an overlay column
// whenever the config is inside the fluid domain, next to the analytic
// one — so a sim sweep's artifact already contains the model-vs-DES gap.
func TestSimSweepAttachesFluidOverlay(t *testing.T) {
	g := Grid{Base: testBase(), Processors: []int{8}}
	res, err := Run(Spec{Grid: g, Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Fluid == nil {
		t.Fatal("no fluid overlay on an in-domain simulated point")
	}
	if pt.Analytic == nil {
		t.Fatal("analytic overlay missing")
	}
	bursty := testBase()
	bursty.Traffic = busnet.MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	res, err = Run(Spec{Grid: Grid{Base: bursty, Processors: []int{8}}, Replications: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Fluid != nil {
		t.Error("fluid overlay attached outside the model's domain")
	}
}

// The JSON side of the "absent, not zero" contract: with histogram
// collection off the quantile keys are absent from the marshaled point;
// with it on they appear. (The CSV side is locked in cmd/busnet-sim.)
func TestQuantileJSONAbsentWhenDisabled(t *testing.T) {
	g := Grid{Base: testBase(), Processors: []int{4}}
	res, err := Run(Spec{Grid: g, Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte("wait_quantiles")) || bytes.Contains(blob, []byte("response_quantiles")) {
		t.Fatalf("quantile keys present with collection disabled:\n%s", blob)
	}

	on := g
	on.Base.Quantiles = true
	res, err = Run(Spec{Grid: on, Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err = json.Marshal(res.Points[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(blob, []byte("wait_quantiles")) {
		t.Fatalf("quantile keys missing with collection enabled:\n%s", blob)
	}
}
