package sweep

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// TopologySpec describes one multi-hop experiment: an explicit list of
// topology operating points (there is no grid algebra over graphs — a
// sweep is usually one base topology copied and tweaked, e.g. over
// bridge depths), replications per point, and the worker bound.
// Replication and determinism semantics match Spec exactly:
// replication r of every point runs RNG substream base.Stream + r, and
// the output is bit-identical for any worker count.
type TopologySpec struct {
	Points       []busnet.Topology `json:"points"`
	Replications int               `json:"replications"`
	Workers      int               `json:"-"`
	// Backend selects evaluation: BackendSim (default) simulates every
	// (point, replication) job; BackendAnalytic evaluates the Jackson
	// product-form overlay per point with no simulation (zero
	// replications, CIUndefined stats). BackendFluid has no topology
	// model and fails the sweep.
	Backend busnet.Backend `json:"backend,omitempty"`
	// Progress, when non-nil, receives live job/point completion counts
	// during RunTopology; same contract as Spec.Progress. Model
	// backends count one job per point.
	Progress *Progress `json:"-"`
}

// HopStat is one node of a topology point reduced across replications.
type HopStat struct {
	Node         string `json:"node"`
	Utilization  Stat   `json:"utilization"`
	Blocked      Stat   `json:"blocked"`
	Throughput   Stat   `json:"throughput"`
	MeanQueueLen Stat   `json:"mean_queue_len"`
	MeanWait     Stat   `json:"mean_wait"`
	MeanResponse Stat   `json:"mean_response"`
}

// TopologyPointResult is one topology operating point reduced across
// its replications: per-hop statistics plus the fabric-level summary —
// total exit throughput and the flow-weighted mean end-to-end response.
// Analytic carries the product-form overlay whenever the analytic backend
// accepts the point (buffered-infinite Poisson/exponential fabrics);
// with finite bridges it is the optimistic no-blocking bound, so the
// sim-minus-analytic gap is the measured blocking penalty.
type TopologyPointResult struct {
	Topology   busnet.Topology            `json:"topology"`
	Hops       []HopStat                  `json:"hops"`
	Throughput Stat                       `json:"throughput"`
	EndToEnd   Stat                       `json:"end_to_end_response"`
	Analytic   *busnet.TopologyPrediction `json:"analytic,omitempty"`
	// Diagnostics is the engine/fabric counter block summed across the
	// point's replications; nil when no simulation ran.
	Diagnostics *busnet.Diagnostics `json:"diagnostics,omitempty"`
}

// TopologyResult is a completed topology sweep, points in spec order.
type TopologyResult struct {
	Replications int                   `json:"replications"`
	Points       []TopologyPointResult `json:"points"`
}

// TopologyPointDelivery is one reduced topology point streamed out of a
// running sweep: the point's index in spec order and its full reduction.
type TopologyPointDelivery struct {
	Index int
	Point TopologyPointResult
}

// RunTopology executes the spec through the same plan → execute →
// reduce pipeline as Run and collects the streamed points back into
// spec order: every (point, replication) job evaluates on its own
// fabric and substream, workers write only their own slots, and the
// first failing job (in job order) aborts the sweep.
func RunTopology(spec TopologySpec) (TopologyResult, error) {
	backend, reps, err := planTopology(spec)
	if err != nil {
		return TopologyResult{}, err
	}
	out := TopologyResult{Replications: reps, Points: make([]TopologyPointResult, len(spec.Points))}
	err = streamTopology(spec, backend, reps, func(d TopologyPointDelivery) {
		out.Points[d.Index] = d.Point
	})
	if err != nil {
		return TopologyResult{}, err
	}
	return out, nil
}

// RunTopologyStream executes the spec, handing each reduced point to
// deliver the moment its last replication lands — same contract as
// RunStream: deliver calls are serialized but arrive in completion
// order, failed points are never delivered, and each point's reduction
// is bit-identical to RunTopology's.
func RunTopologyStream(spec TopologySpec, deliver func(TopologyPointDelivery)) error {
	backend, reps, err := planTopology(spec)
	if err != nil {
		return err
	}
	return streamTopology(spec, backend, reps, deliver)
}

// planTopology resolves the backend and replication count and validates
// the point list — non-empty, every point valid — the topology flavor of
// plan. Every evaluator validates its point the same way, so an invalid
// point is refused here before any other point's jobs run.
func planTopology(spec TopologySpec) (busnet.Backend, int, error) {
	backend, err := busnet.ParseBackend(string(spec.Backend))
	if err != nil {
		return "", 0, fmt.Errorf("sweep: %w", err)
	}
	if len(spec.Points) == 0 {
		return "", 0, fmt.Errorf("sweep: topology sweep has no points")
	}
	for i, t := range spec.Points {
		if err := t.Validate(); err != nil {
			return "", 0, fmt.Errorf("sweep: point %d invalid: %w", i, err)
		}
	}
	if backend != busnet.BackendSim {
		return backend, 0, nil
	}
	reps := spec.Replications
	if reps <= 0 {
		reps = DefaultReplications
	}
	return backend, reps, nil
}

// streamTopology wires the pipeline for one planned topology sweep.
func streamTopology(spec TopologySpec, backend busnet.Backend, reps int, deliver func(TopologyPointDelivery)) error {
	if backend != busnet.BackendSim {
		return predictTopologyStream(backend, spec.Points, spec.Progress, deliver)
	}
	pl := &pipeline[busnet.Topology, busnet.TopologyEvaluation]{
		points:   spec.Points,
		reps:     reps,
		workers:  spec.Workers,
		progress: spec.Progress,
		run: func(t busnet.Topology, _, rep int) (busnet.TopologyEvaluation, error) {
			t.Stream += uint64(rep)
			return busnet.EvaluateTopology(t, busnet.BackendSim)
		},
		deliver: func(pt int, runs []busnet.TopologyEvaluation) {
			deliver(TopologyPointDelivery{Index: pt, Point: reduceTopology(spec.Points[pt], runs)})
		},
		wrapErr: func(pt, rep int, err error) error {
			return fmt.Errorf("sweep: topology point %d replication %d: %w", pt, rep, err)
		},
	}
	return pl.execute()
}

// predictTopologyStream evaluates every point with the product-form
// overlay — no simulation, no replications, Stats in the
// single-replication encoding (mirroring predictStream, including the
// one-job-per-point Progress accounting).
func predictTopologyStream(backend busnet.Backend, points []busnet.Topology, progress *Progress, deliver func(TopologyPointDelivery)) error {
	point := func(x float64) Stat { return Stat{Mean: x, Lo: x, Hi: x, CIUndefined: true} }
	if progress != nil {
		progress.begin(len(points), 1, 1)
	}
	for p, t := range points {
		progress.jobStart()
		ev, err := busnet.EvaluateTopology(t, backend)
		if err != nil {
			return fmt.Errorf("sweep: %s backend, topology point %d: %w", backend, p, err)
		}
		pr := TopologyPointResult{
			Topology:   t.Normalized(),
			Analytic:   ev.Analytic,
			Throughput: point(ev.Throughput),
			EndToEnd:   point(ev.MeanResponse),
			Hops:       make([]HopStat, len(ev.Analytic.Nodes)),
		}
		for k, n := range ev.Analytic.Nodes {
			pr.Hops[k] = HopStat{
				Node:         n.Node,
				Utilization:  point(n.Utilization),
				Blocked:      point(0),
				Throughput:   point(n.Throughput),
				MeanQueueLen: point(n.MeanQueueLen),
				MeanWait:     point(n.MeanWait),
				MeanResponse: point(n.MeanResponse),
			}
		}
		progress.jobDone(true)
		deliver(TopologyPointDelivery{Index: p, Point: pr})
	}
	return nil
}

// reduceTopology collapses one point's replications into CI statistics
// and attaches the product-form overlay when one exists.
func reduceTopology(t busnet.Topology, runs []busnet.TopologyEvaluation) TopologyPointResult {
	// Every pick and hop statistic shares one scratch slice: summarize
	// keeps no reference to it.
	xs := make([]float64, len(runs))
	pick := func(f func(busnet.TopologyEvaluation) float64) Stat {
		for i, r := range runs {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	pr := TopologyPointResult{
		// The canonical normalized topology as echoed by replication 0;
		// its Stream is the spec base's (replication r ran base + r).
		Topology:   runs[0].Results.Topology,
		Throughput: pick(func(r busnet.TopologyEvaluation) float64 { return r.Throughput }),
		EndToEnd:   pick(func(r busnet.TopologyEvaluation) float64 { return r.MeanResponse }),
		Hops:       make([]HopStat, len(runs[0].Results.Hops)),
	}
	pr.Topology.Stream = t.Stream
	hop := func(k int, f func(busnet.HopResult) float64) Stat {
		for i, r := range runs {
			xs[i] = f(r.Results.Hops[k])
		}
		return summarize(xs)
	}
	for k := range pr.Hops {
		pr.Hops[k] = HopStat{
			Node:         runs[0].Results.Hops[k].Name,
			Utilization:  hop(k, func(h busnet.HopResult) float64 { return h.Utilization }),
			Blocked:      hop(k, func(h busnet.HopResult) float64 { return h.Blocked }),
			Throughput:   hop(k, func(h busnet.HopResult) float64 { return h.Throughput }),
			MeanQueueLen: hop(k, func(h busnet.HopResult) float64 { return h.MeanQueueLen }),
			MeanWait:     hop(k, func(h busnet.HopResult) float64 { return h.MeanWait }),
			MeanResponse: hop(k, func(h busnet.HopResult) float64 { return h.MeanResponse }),
		}
	}
	// Same lazy allocation as reduce: Diagnostics stays nil unless some
	// replication actually carried counters.
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
	if ev, err := busnet.EvaluateTopology(t, busnet.BackendAnalytic); err == nil {
		pr.Analytic = ev.Analytic
	}
	return pr
}
