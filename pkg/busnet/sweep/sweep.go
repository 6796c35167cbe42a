// Package sweep is the experiment engine over pkg/busnet: it expands a
// parameter Grid into configs, runs R independent replications of every
// point across a bounded worker pool, and reduces the replications into
// mean ± 95% confidence intervals with the matching closed-form
// prediction attached wherever a steady state exists. This is the
// paper's methodology — whole curves cross-checked against analysis,
// not single operating points.
//
// Execution is a three-stage pipeline. Plan resolves the spec into a
// deterministic stream of (config, seed, stream) work units (see Jobs);
// execute fans them over the worker pool, streaming each completed
// point out the moment its last replication lands and consulting an
// optional result Cache keyed on that same triple; reduce collapses
// each point's replications into CI statistics. Run and RunTopology
// are thin wrappers that collect the stream back into grid order —
// their output is bit-identical to the historical batch-barrier
// implementation — while RunStream/RunTopologyStream expose the
// pipeline to consumers that want points as they land.
//
// Results are deterministic: replication r of every point runs RNG
// substream base.Stream + r of the spec's seed (common random numbers
// across points, independence across replications), and workers only
// ever write to their job's own slot, so the output is bit-identical
// for any worker count — and, with a Cache attached, for any mix of
// warm and cold entries.
package sweep

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// DefaultReplications is used when Spec.Replications is unset; ten
// replications give a t-based CI enough degrees of freedom to be
// meaningful without dominating runtime.
const DefaultReplications = 10

// Spec describes one experiment: the grid of operating points, how many
// independent replications to run per point, and how many worker
// goroutines may run simultaneously. Workers ≤ 0 means GOMAXPROCS-many;
// the worker count never affects the numbers produced, only wall-clock
// time.
type Spec struct {
	Grid         Grid `json:"grid"`
	Replications int  `json:"replications"`
	Workers      int  `json:"-"`
	// Points, when non-empty, bypasses Grid expansion: the plan stage
	// takes this explicit, validated-on-entry point list instead. This
	// is the optimizer's path — candidate sets carved out of a budget
	// constraint are not cartesian — and the service path for specs
	// that arrive already expanded. Replication and determinism
	// semantics are identical to a grid of the same points.
	Points []busnet.Config `json:"points,omitempty"`
	// KeepRuns retains every replication's full Results in the point
	// (large output; off by default).
	KeepRuns bool `json:"keep_runs,omitempty"`
	// Backend selects how points are evaluated. BackendSim (the default)
	// simulates every (point, replication) job as always. BackendFluid
	// and BackendAnalytic run no simulation at all: each point is
	// evaluated by busnet.FluidPredict or busnet.Predict directly, its
	// Stats carry the model's point estimates (CIUndefined, zero
	// replications — there is no sampling variability to summarize), and
	// a grid at N = 10⁶ reduces in milliseconds. A predictor refusing any
	// point (outside its domain, or no steady state) fails the sweep —
	// prefer an explicit error over a silently missing curve segment.
	Backend busnet.Backend `json:"backend,omitempty"`
	// Progress, when non-nil, receives live job/point completion counts
	// during Run — poll it from another goroutine for a reporter.
	// Attaching it never changes the sweep's output. Model backends
	// count one job per point.
	Progress *Progress `json:"-"`
	// Cache, when non-nil, is consulted before and populated after
	// every simulation job. Bit-exact reproducibility makes the
	// (config-hash, seed, stream) key exact, so a warm sweep is
	// byte-identical to a cold one — repeated points across optimizer
	// iterations or recurring specs cost a lookup, not a simulation.
	// Ignored by model backends, whose evaluations are already cheap.
	Cache *Cache `json:"-"`
}

// PointResult is one grid point reduced across its replications.
// Analytic is nil when no steady state exists (e.g. infinite buffers at
// offered load ≥ 1).
type PointResult struct {
	Config   busnet.Config      `json:"config"`
	Analytic *busnet.Prediction `json:"analytic,omitempty"`
	// Fluid is the mean-field overlay next to the analytic one: attached
	// to simulated points whenever busnet.FluidPredict accepts the
	// config, and the primary output of BackendFluid sweeps. Nil outside
	// the fluid model's domain.
	Fluid        *busnet.FluidPrediction `json:"fluid,omitempty"`
	Utilization  Stat                    `json:"utilization"`
	Throughput   Stat                    `json:"throughput"`
	MeanWait     Stat                    `json:"mean_wait"`
	MeanQueueLen Stat                    `json:"mean_queue_len"`
	MeanResponse Stat                    `json:"mean_response"`
	// WaitQuantiles and ResponseQuantiles are pooled tail-latency
	// percentiles: the per-replication streaming histograms are merged
	// (bucket counts add losslessly) and the quantiles read off the
	// pooled distribution, so every replication's samples weigh in —
	// exactly what a per-replication mean of p99s would not give. Both
	// are nil when histogram collection was disabled (Config.Quantiles
	// off) or no simulation ran — absent from the JSON form rather than
	// rendered as zero latencies, mirroring the ci_undefined convention.
	WaitQuantiles     *busnet.Quantiles `json:"wait_quantiles,omitempty"`
	ResponseQuantiles *busnet.Quantiles `json:"response_quantiles,omitempty"`
	// Grants is the per-processor bus-grant count summed across the
	// point's replications; its skew is the fairness/starvation signal
	// arbiter comparisons read.
	Grants []uint64 `json:"grants"`
	// BusUtilization is each bus's busy fraction averaged across the
	// point's replications (one entry per bus, skewed toward bus 0 by
	// the lowest-free-bus dispatch); its mean is Utilization's.
	BusUtilization []float64        `json:"bus_utilization"`
	Runs           []busnet.Results `json:"runs,omitempty"`
	// Diagnostics is the engine/model counter block summed across the
	// point's replications; deterministic for a fixed spec regardless of
	// worker count. Nil when no simulation ran (predict-only backends,
	// or every replication served from an externally-warmed cache entry
	// that carried no counters).
	Diagnostics *busnet.Diagnostics `json:"diagnostics,omitempty"`
}

// Result is a completed sweep. Points appear in Grid.Points order.
type Result struct {
	Replications int           `json:"replications"`
	Points       []PointResult `json:"points"`
}

// PointDelivery is one reduced point streamed out of a running sweep:
// the point's index in plan (grid) order and its full reduction.
type PointDelivery struct {
	Index int
	Point PointResult
}

// Run executes the spec through the plan → execute → reduce pipeline
// and collects the streamed points back into grid order. Every
// (point, replication) job is simulated on its own Network with an
// independent RNG substream, and each job writes only its own slot —
// so Run's output depends on the spec alone, never on scheduling. The
// first failing job (in job order) aborts the sweep with its error.
func Run(spec Spec) (Result, error) {
	points, reps, backend, err := plan(spec)
	if err != nil {
		return Result{}, err
	}
	out := Result{Replications: reps, Points: make([]PointResult, len(points))}
	err = stream(spec, backend, points, reps, func(d PointDelivery) {
		out.Points[d.Index] = d.Point
	})
	if err != nil {
		return Result{}, err
	}
	return out, nil
}

// RunStream executes the spec, handing each reduced point to deliver
// the moment its last replication lands. Calls to deliver are
// serialized (never concurrent) but arrive in completion order, which
// under a parallel pool is generally NOT grid order; d.Index says which
// point arrived. Each point's reduction is bit-identical to the one Run
// would return — Run is RunStream plus reassembly into grid order. A
// point with a failed replication is never delivered; after the pool
// drains, the first failing job (in job order) is returned.
func RunStream(spec Spec, deliver func(PointDelivery)) error {
	points, reps, backend, err := plan(spec)
	if err != nil {
		return err
	}
	return stream(spec, backend, points, reps, deliver)
}

// stream wires the pipeline for one planned sweep: model backends
// evaluate point-by-point, the sim backend fans jobs through the
// cache-aware pool and reduces each point as it completes.
//
// With a cache attached, each point's config is hashed once here rather
// than once per job: a point's replications differ only in Stream, which
// the config hash excludes, so every job key is that hash plus the job's
// (Seed, Stream) — exactly what KeyFor derives for the job's config.
func stream(spec Spec, backend busnet.Backend, points []busnet.Config, reps int, deliver func(PointDelivery)) error {
	if backend != busnet.BackendSim {
		return predictStream(backend, points, spec.Progress, deliver)
	}
	hashes := make([]string, len(points))
	if spec.Cache != nil {
		for p, cfg := range points {
			// A config that does not marshal keeps an empty hash and runs
			// uncached; Validate rejects such configs at plan time anyway.
			if k, err := KeyFor(cfg); err == nil {
				hashes[p] = k.ConfigHash
			}
		}
	}
	pl := &pipeline[busnet.Config, busnet.Results]{
		points:   points,
		reps:     reps,
		workers:  spec.Workers,
		progress: spec.Progress,
		run: func(cfg busnet.Config, pt, rep int) (busnet.Results, error) {
			return runJob(cfg, rep, spec.Cache, hashes[pt])
		},
		deliver: func(pt int, runs []busnet.Results) {
			deliver(PointDelivery{Index: pt, Point: reduce(points[pt], runs, spec.KeepRuns)})
		},
		wrapErr: func(pt, rep int, err error) error {
			return fmt.Errorf("sweep: point %d replication %d: %w", pt, rep, err)
		},
	}
	return pl.execute()
}

// predictStream evaluates every point with the fluid or analytic model
// — no simulation, no replications. Stats carry the model's point
// estimates in the single-replication encoding (Lo = Hi = Mean,
// CIUndefined): a deterministic model has no sampling variability, and
// downstream CSV/JSON already renders undefined intervals as empty
// cells. Result.Replications is 0 so consumers can tell a model curve
// from even a one-replication simulation. Progress counts one job per
// point, so model-backend sweeps report like simulated ones.
func predictStream(backend busnet.Backend, points []busnet.Config, progress *Progress, deliver func(PointDelivery)) error {
	point := func(x float64) Stat { return Stat{Mean: x, Lo: x, Hi: x, CIUndefined: true} }
	if progress != nil {
		progress.begin(len(points), 1, 1)
	}
	for p, cfg := range points {
		progress.jobStart()
		ev, err := busnet.Evaluate(cfg, backend)
		if err != nil {
			return fmt.Errorf("sweep: %s backend, point %d: %w", backend, p, err)
		}
		pr := PointResult{
			Config:       cfg.Normalized(),
			Utilization:  point(ev.Utilization),
			Throughput:   point(ev.Throughput),
			MeanWait:     point(ev.MeanWait),
			MeanQueueLen: point(ev.MeanQueueLen),
			MeanResponse: point(ev.MeanResponse),
		}
		switch backend {
		case busnet.BackendFluid:
			pr.Fluid = ev.Fluid
			// The exact closed form rides along where it exists, so
			// fluid-vs-exact gaps are visible in one artifact.
			if aev, err := busnet.Evaluate(cfg, busnet.BackendAnalytic); err == nil {
				pr.Analytic = aev.Analytic
			}
		case busnet.BackendAnalytic:
			pr.Analytic = ev.Analytic
		}
		progress.jobDone(p)
		deliver(PointDelivery{Index: p, Point: pr})
	}
	return nil
}

// runJob simulates replication rep of one grid point on RNG substream
// base.Stream + rep: replication seeds are a function of the experiment
// seed and the replication index alone, shared across points (common
// random numbers) and independent within a point. With a cache and the
// point's config hash, the job's (config-hash, seed, stream) key is
// consulted first and the fresh result stored after — determinism makes
// the cached and simulated results interchangeable to the bit.
func runJob(cfg busnet.Config, rep int, cache *Cache, hash string) (busnet.Results, error) {
	cfg.Stream += uint64(rep)
	cached := cache != nil && hash != ""
	key := Key{ConfigHash: hash, Seed: cfg.Seed, Stream: cfg.Stream}
	if cached {
		if res, ok := cache.Get(key); ok {
			return res, nil
		}
	}
	ev, err := busnet.Evaluate(cfg, busnet.BackendSim)
	if err != nil {
		return busnet.Results{}, err
	}
	if cached {
		cache.Put(key, *ev.Results)
	}
	return *ev.Results, nil
}

// reduce collapses one point's replications into CI statistics and
// attaches the closed-form prediction when one exists.
func reduce(cfg busnet.Config, runs []busnet.Results, keep bool) PointResult {
	pick := func(f func(busnet.Results) float64) Stat {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	pr := PointResult{
		// The point's canonical normalized config as echoed by
		// replication 0's run; its Stream is the grid base's stream
		// (replication r ran base.Stream + r).
		Config:       runs[0].Config,
		Utilization:  pick(func(r busnet.Results) float64 { return r.Utilization }),
		Throughput:   pick(func(r busnet.Results) float64 { return r.Throughput }),
		MeanWait:     pick(func(r busnet.Results) float64 { return r.MeanWait }),
		MeanQueueLen: pick(func(r busnet.Results) float64 { return r.MeanQueueLen }),
		MeanResponse: pick(func(r busnet.Results) float64 { return r.MeanResponse }),
		Grants:       make([]uint64, len(runs[0].Grants)),
		BusUtilization: func() []float64 {
			bu := make([]float64, len(runs[0].BusUtilization))
			for _, r := range runs {
				for b, u := range r.BusUtilization {
					bu[b] += u / float64(len(runs))
				}
			}
			return bu
		}(),
	}
	for _, r := range runs {
		for i, g := range r.Grants {
			pr.Grants[i] += g
		}
	}
	// Diagnostics stays nil unless some replication actually carried
	// counters — runs injected from an external cache warm-up may not —
	// honoring the "nil when no simulation ran" contract instead of
	// attaching an all-zero block.
	var diag *busnet.Diagnostics
	for _, r := range runs {
		if r.Diagnostics == nil {
			continue
		}
		if diag == nil {
			diag = &busnet.Diagnostics{}
		}
		diag.Accumulate(*r.Diagnostics)
	}
	pr.Diagnostics = diag
	// Pool latency histograms only when the runs collected them
	// (Config.Quantiles): the quantile fields stay nil otherwise, so the
	// output says "not measured", not "all-zero latencies".
	if runs[0].WaitHistogram != nil {
		var waitHist, respHist busnet.Histogram
		for _, r := range runs {
			waitHist.Merge(r.WaitHistogram)
			respHist.Merge(r.ResponseHistogram)
		}
		pr.WaitQuantiles = busnet.QuantilesFrom(&waitHist)
		pr.ResponseQuantiles = busnet.QuantilesFrom(&respHist)
	}
	if ev, err := busnet.Evaluate(cfg, busnet.BackendAnalytic); err == nil {
		pr.Analytic = ev.Analytic
	}
	if ev, err := busnet.Evaluate(cfg, busnet.BackendFluid); err == nil {
		pr.Fluid = ev.Fluid
	}
	if keep {
		pr.Runs = runs
	}
	return pr
}
