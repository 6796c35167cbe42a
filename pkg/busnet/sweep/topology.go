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
	// product-form overlay as one job per point with no simulation (zero
	// replications, CIUndefined stats), and a refused point fails the
	// sweep as Spec.Backend describes. BackendFluid has no topology
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
// first failing job (in job order) fails the sweep.
func RunTopology(spec TopologySpec) (TopologyResult, error) {
	e, err := spec.prepare()
	if err != nil {
		return TopologyResult{}, err
	}
	out := TopologyResult{Replications: e.reps, Points: make([]TopologyPointResult, len(e.points))}
	if err := e.run(func(pt int, point TopologyPointResult) { out.Points[pt] = point }); err != nil {
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
	e, err := spec.prepare()
	if err != nil {
		return err
	}
	return e.run(func(pt int, point TopologyPointResult) {
		deliver(TopologyPointDelivery{Index: pt, Point: point})
	})
}

// prepare plans the spec — a topology sweep has no grid, so it needs
// listed points — and wires the plan to the executor.
func (spec TopologySpec) prepare() (*executor[busnet.Topology, busnet.TopologyEvaluation, TopologyPointResult], error) {
	p, err := newPlan(spec.Backend, spec.Replications, spec.Points,
		func() ([]busnet.Topology, error) { return nil, fmt.Errorf("sweep: topology sweep has no points") },
		func(t busnet.Topology) int {
			processors := 0
			for _, n := range t.Nodes {
				processors += n.Processors
			}
			return processors
		})
	if err != nil {
		return nil, err
	}
	return &executor[busnet.Topology, busnet.TopologyEvaluation, TopologyPointResult]{
		plan:     p,
		workers:  spec.Workers,
		progress: spec.Progress,
		label:    "topology point",
		simulate: func(t busnet.Topology, _, rep int) (busnet.TopologyEvaluation, error) {
			t.Stream += uint64(rep)
			return busnet.EvaluateTopology(t, busnet.BackendSim)
		},
		reduce: reduceTopology,
		model:  modelTopologyPoint,
	}, nil
}

// modelTopologyPoint evaluates one point with the product-form overlay
// — no simulation, no replications, Stats in the single-replication
// encoding, as modelPoint does for flat points.
func modelTopologyPoint(backend busnet.Backend, t busnet.Topology) (TopologyPointResult, error) {
	ev, err := busnet.EvaluateTopology(t, backend)
	if err != nil {
		return TopologyPointResult{}, err
	}
	pr := TopologyPointResult{
		Topology:   t.Normalized(),
		Analytic:   ev.Analytic,
		Throughput: estimate(ev.Throughput),
		EndToEnd:   estimate(ev.MeanResponse),
		Hops:       make([]HopStat, len(ev.Analytic.Nodes)),
	}
	for k, n := range ev.Analytic.Nodes {
		pr.Hops[k] = HopStat{
			Node:         n.Node,
			Utilization:  estimate(n.Utilization),
			Blocked:      estimate(0),
			Throughput:   estimate(n.Throughput),
			MeanQueueLen: estimate(n.MeanQueueLen),
			MeanWait:     estimate(n.MeanWait),
			MeanResponse: estimate(n.MeanResponse),
		}
	}
	return pr, nil
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
		// The point's canonical topology; its Stream is the spec base's
		// (replication r ran base + r).
		Topology:    t.Normalized(),
		Throughput:  pick(func(r busnet.TopologyEvaluation) float64 { return r.Throughput }),
		EndToEnd:    pick(func(r busnet.TopologyEvaluation) float64 { return r.MeanResponse }),
		Hops:        make([]HopStat, len(runs[0].Results.Hops)),
		Diagnostics: sumDiagnostics(len(runs), func(i int) *busnet.Diagnostics { return runs[i].Diagnostics }),
	}
	for k := range pr.Hops {
		pr.Hops[k] = reduceHop(xs, func(i int) *busnet.HopResult { return &runs[i].Results.Hops[k] })
	}
	if ev, err := busnet.EvaluateTopology(t, busnet.BackendAnalytic); err == nil {
		pr.Analytic = ev.Analytic
	}
	return pr
}
