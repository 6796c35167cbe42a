// Package sweep is the experiment engine over pkg/busnet: it expands a
// parameter Grid into configs, runs R independent replications of every
// point across a bounded worker pool, and reduces the replications into
// mean ± 95% confidence intervals with the matching closed-form
// prediction attached wherever a steady state exists. This is the
// paper's methodology — whole curves cross-checked against analysis,
// not single operating points.
//
// Execution is a three-stage pipeline with one planner and one executor
// for Spec and TopologySpec alike. Plan resolves the spec — backend,
// validated points, replication count — before any job runs; execute
// fans the jobs over the worker pool and streams each point out the
// moment its last job lands; reduce collapses a simulated point's
// replications into CI statistics. A simulated sweep runs one job per
// (point, replication), an (operating point, seed, stream) work unit; a
// model sweep (analytic or fluid) runs one job per point, and that job
// builds the point. Run and RunTopology collect the stream back into
// grid order, while RunStream/RunTopologyStream hand points to
// consumers that want them as they land, and Replicate hands over each
// replication unreduced, to callers that keep their own
// per-replication values.
//
// Results are deterministic: replication r of every point runs RNG
// substream base.Stream + r of the spec's seed (common random numbers
// across points, independence across replications), and workers only
// ever write to their job's own slot, so the output is bit-identical
// for any worker count.
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
	// (large output; off by default). Replication r's run is the
	// Results of the point's config at Stream base.Stream + r, which no
	// run echoes. Kept runs are the caller's own: the sweep keeps no
	// reference to any part of them.
	KeepRuns bool `json:"keep_runs,omitempty"`
	// Backend selects how points are evaluated. BackendSim (the default)
	// simulates every (point, replication) job as always. BackendFluid
	// and BackendAnalytic run no simulation at all: each point is one
	// job on the worker pool, evaluated by busnet.Evaluate with that
	// backend directly; its Stats carry the model's point estimates
	// (CIUndefined, zero replications — there is no sampling variability
	// to summarize), and a grid at N = 10⁶ reduces in milliseconds. A
	// predictor refusing a point (outside its domain, or no steady
	// state) fails the sweep with the lowest refused point's error —
	// prefer an explicit error over a silently missing curve segment —
	// though every other point is still evaluated, and RunStream
	// delivers it.
	Backend busnet.Backend `json:"backend,omitempty"`
	// Progress, when non-nil, receives live job/point completion counts
	// during Run — poll it from another goroutine for a reporter.
	// Attaching it never changes the sweep's output. Model backends
	// count one job per point.
	Progress *Progress `json:"-"`
}

// PointResult is one grid point reduced across its replications.
// Analytic is nil when no steady state exists (e.g. infinite buffers at
// offered load ≥ 1).
type PointResult struct {
	Config   busnet.Config      `json:"config"`
	Analytic *busnet.Prediction `json:"analytic,omitempty"`
	// Fluid is the mean-field overlay next to the analytic one: attached
	// to simulated points whenever the fluid backend accepts the
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
	// the lowest-free-bus dispatch); its mean is Utilization's up to
	// rounding, since the two average over buses and runs in different
	// orders.
	BusUtilization []float64        `json:"bus_utilization"`
	Runs           []busnet.Results `json:"runs,omitempty"`
	// Diagnostics is the engine/model counter block summed across the
	// point's replications; deterministic for a fixed spec regardless of
	// worker count. Nil only for the model backends, which simulate
	// nothing.
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
// (point, replication) job is its own simulation with an
// independent RNG substream, and each job writes only its own slot —
// so Run's output depends on the spec alone, never on scheduling. The
// first failing job (in job order) fails the sweep with its error.
func Run(spec Spec) (Result, error) {
	e, err := spec.prepare()
	if err != nil {
		return Result{}, err
	}
	out := Result{Replications: e.reps, Points: make([]PointResult, len(e.points))}
	if err := e.run(func(pt int, point PointResult) { out.Points[pt] = point }); err != nil {
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
// point with a failed job is never delivered; after the pool drains,
// the first failing job (in job order) is returned.
func RunStream(spec Spec, deliver func(PointDelivery)) error {
	e, err := spec.prepare()
	if err != nil {
		return err
	}
	return e.run(func(pt int, point PointResult) {
		deliver(PointDelivery{Index: pt, Point: point})
	})
}

// Replicate executes the spec's simulation jobs and hands each finished
// replication to fn, reducing nothing: fn(pt, rep, r) receives
// replication rep of point pt, the Results of the point's config at
// Stream base.Stream + rep. It is the door for callers that keep their
// own per-replication values: the optimizer's race asks each round only
// for the streams it has not run yet. Calls to fn are serialized; a
// point's replications arrive together, in replication order, once the
// last of them lands, and points arrive in completion order. A point
// with a failed job is never handed over, and after the pool drains the
// first failing job (in job order) is returned, as from RunStream.
// Replicate reads the spec's points, Replications, Workers and
// Progress; a model Backend, which runs no replications, is refused,
// and KeepRuns has nothing to keep: each r is fn's own.
func Replicate(spec Spec, fn func(pt, rep int, r *busnet.Results)) error {
	e, err := spec.prepare()
	if err != nil {
		return err
	}
	if e.backend != busnet.BackendSim {
		return fmt.Errorf("sweep: the %s backend runs no replications", e.backend)
	}
	return e.replicate(func(pt int, runs []*busnet.Results) {
		for rep, r := range runs {
			fn(pt, rep, r)
		}
	})
}

// prepare plans the spec — its explicit Points, or else its Grid's —
// and wires the plan to the executor: a simulated point's jobs run
// replications that reduce collapses, a model point is built by
// modelPoint.
func (spec Spec) prepare() (*executor[busnet.Config, *busnet.Results, PointResult], error) {
	p, err := newPlan(spec.Backend, spec.Replications, spec.Points, spec.Grid.Points,
		func(cfg busnet.Config) int { return cfg.Processors })
	if err != nil {
		return nil, err
	}
	return &executor[busnet.Config, *busnet.Results, PointResult]{
		plan:     p,
		workers:  spec.Workers,
		progress: spec.Progress,
		label:    "point",
		// Replication rep runs RNG substream base.Stream + rep: seeds are
		// a function of the experiment seed and the replication index
		// alone, shared across points (common random numbers) and
		// independent within a point. Each job's Results travels by
		// pointer to reduce, or to Replicate's caller, uncopied.
		simulate: func(cfg busnet.Config, _, rep int) (*busnet.Results, error) {
			cfg.Stream += uint64(rep)
			ev, err := busnet.Evaluate(cfg, busnet.BackendSim)
			return ev.Results, err
		},
		reduce: func(cfg busnet.Config, runs []*busnet.Results) PointResult {
			return reduce(cfg, runs, spec.KeepRuns)
		},
		model: modelPoint,
	}, nil
}

// modelPoint evaluates one point with the fluid or analytic model — no
// simulation, no replications. Stats carry the model's point estimates
// in the single-replication encoding (see estimate); Result.Replications
// is 0 so consumers can tell a model curve from even a one-replication
// simulation.
func modelPoint(backend busnet.Backend, cfg busnet.Config) (PointResult, error) {
	ev, err := busnet.Evaluate(cfg, backend)
	if err != nil {
		return PointResult{}, err
	}
	pr := PointResult{
		Config:       cfg.Normalized(),
		Utilization:  estimate(ev.Utilization),
		Throughput:   estimate(ev.Throughput),
		MeanWait:     estimate(ev.MeanWait),
		MeanQueueLen: estimate(ev.MeanQueueLen),
		MeanResponse: estimate(ev.MeanResponse),
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
	return pr, nil
}

// estimate encodes a model's point estimate x as a Stat the way a
// single replication is encoded (Lo = Hi = Mean, CIUndefined): a
// deterministic model has no sampling variability, and downstream
// CSV/JSON already renders undefined intervals as empty cells.
func estimate(x float64) Stat { return Stat{Mean: x, Lo: x, Hi: x, CIUndefined: true} }

// reduce collapses one point's replications into CI statistics and
// attaches the closed-form prediction when one exists. Only the sweep
// holds runs, so kept runs are handed over as they are.
func reduce(cfg busnet.Config, runs []*busnet.Results, keep bool) PointResult {
	hop := reduceHop(make([]float64, len(runs)), func(i int) *busnet.HopResult { return &runs[i].HopResult })
	pr := PointResult{
		// The point's canonical config; its Stream is the grid base's
		// stream (replication r ran base.Stream + r).
		Config:         cfg.Normalized(),
		Utilization:    hop.Utilization,
		Throughput:     hop.Throughput,
		MeanWait:       hop.MeanWait,
		MeanQueueLen:   hop.MeanQueueLen,
		MeanResponse:   hop.MeanResponse,
		Grants:         make([]uint64, len(runs[0].Grants)),
		BusUtilization: make([]float64, len(runs[0].BusUtilization)),
		Diagnostics:    sumDiagnostics(len(runs), func(i int) *busnet.Diagnostics { return runs[i].Diagnostics }),
	}
	for _, r := range runs {
		for i, g := range r.Grants {
			pr.Grants[i] += g
		}
		for b, u := range r.BusUtilization {
			pr.BusUtilization[b] += u / float64(len(runs))
		}
	}
	// Pool latency histograms only when the runs collected them
	// (Config.Quantiles): the quantile fields stay nil otherwise, so the
	// output says "not measured", not "all-zero latencies". Each pool is
	// one Merge of every run, which sizes it once, to the union of the
	// runs' windows.
	if runs[0].WaitHist != nil {
		hists := make([]*busnet.Histogram, 2*len(runs))
		waits, resps := hists[:len(runs)], hists[len(runs):]
		for i, r := range runs {
			waits[i], resps[i] = r.WaitHist, r.RespHist
		}
		var waitHist, respHist busnet.Histogram
		waitHist.Merge(waits...)
		respHist.Merge(resps...)
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
		pr.Runs = make([]busnet.Results, len(runs))
		for i, r := range runs {
			pr.Runs[i] = *r
		}
	}
	return pr
}

// reduceHop is the one hop reduction behind flat and topology points:
// it reduces one hop across the replications, hop(i) being replication
// i's, with one summarize per HopStat statistic. xs is scratch, one
// element per replication: summarize keeps no reference to it.
func reduceHop(xs []float64, hop func(i int) *busnet.HopResult) HopStat {
	stat := func(f func(*busnet.HopResult) float64) Stat {
		for i := range xs {
			xs[i] = f(hop(i))
		}
		return summarize(xs)
	}
	return HopStat{
		Node:         hop(0).Name,
		Utilization:  stat(func(h *busnet.HopResult) float64 { return h.Utilization }),
		Blocked:      stat(func(h *busnet.HopResult) float64 { return h.Blocked }),
		Throughput:   stat(func(h *busnet.HopResult) float64 { return h.Throughput }),
		MeanQueueLen: stat(func(h *busnet.HopResult) float64 { return h.MeanQueueLen }),
		MeanWait:     stat(func(h *busnet.HopResult) float64 { return h.MeanWait }),
		MeanResponse: stat(func(h *busnet.HopResult) float64 { return h.MeanResponse }),
	}
}

// sumDiagnostics sums n replications' diagnostics, diag(i) being
// replication i's.
func sumDiagnostics(n int, diag func(i int) *busnet.Diagnostics) *busnet.Diagnostics {
	d := new(busnet.Diagnostics)
	for i := range n {
		d.Accumulate(*diag(i))
	}
	return d
}
