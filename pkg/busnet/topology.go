package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/analytic"
	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/obs"
	"github.com/busnet/busnet/internal/topo"
)

// Node is one bus segment of a Topology: an arbitration point with the
// same knobs as the flat Config — bus count, service shape, arbiter,
// local processors with their traffic shape and interface mode — plus a
// Route naming the segments its processors' requests visit after this
// one. A Node with zero Processors is a pure transit segment (a bridged
// hop that only carries through-traffic). Field meanings match Config
// exactly, so a one-node topology is the flat model.
type Node struct {
	// Name identifies the node; Routes and Links refer to nodes by it.
	// Required and unique.
	Name string `json:"name"`
	// Buses is the number of identical parallel buses, m ≥ 1 (0 → 1).
	Buses       int     `json:"buses,omitempty"`
	ServiceRate float64 `json:"service_rate"`
	Service     Service `json:"service,omitzero"`
	// Arbiter and Weights configure arbitration among this node's
	// claimants: its local processors first, then one claimant per
	// inbound bridge in Topology.Links order. Weighted-round-robin
	// weight vectors cover that full claimant list.
	Arbiter string `json:"arbiter,omitempty"`
	Weights string `json:"weights,omitempty"`
	// Processors is the number of local request-generating stations ≥ 0.
	Processors int     `json:"processors,omitempty"`
	ThinkRate  float64 `json:"think_rate,omitempty"`
	Traffic    Traffic `json:"traffic,omitzero"`
	// Mode is the local-interface regime: ModeUnbuffered blocks the
	// issuing processor until its request exits the whole fabric (the
	// multi-hop extension of the paper's blocking regime); ModeBuffered
	// queues at the interface up to BufferCap.
	Mode      string `json:"mode,omitempty"`
	BufferCap int    `json:"buffer_cap,omitempty"` // -1 = infinite
	// Route lists, in hop order, the nodes a local request visits after
	// this one; consecutive hops must be connected by a Link. Empty
	// means requests complete locally.
	Route []string `json:"route,omitempty"`
}

// Link is a directed bridge between two named nodes with a finite
// buffer of Buffer slots (Infinite for unbounded). A request finishing
// service at From when the bridge is full blocks its bus — blocking
// after service — until To drains a slot, propagating backpressure
// upstream.
type Link struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Buffer int    `json:"buffer"`
}

// Topology is the multi-hop generalization of Config: a directed
// acyclic graph of bus segments (Nodes) connected by finite-buffer
// bridges (Links). Like Config it is a plain value type that
// round-trips through JSON, runs nothing itself, and fans out to grids
// and replications by copy-and-tweak; Seed/Stream/Horizon/Warmup have
// exactly their flat meanings. Build one with a literal, by JSON, or
// with NewTopology's builder, and hand it to EvaluateTopology.
type Topology struct {
	Nodes   []Node  `json:"nodes"`
	Links   []Link  `json:"links,omitempty"`
	Seed    int64   `json:"seed"`
	Stream  uint64  `json:"stream"`
	Horizon float64 `json:"horizon"`
	Warmup  float64 `json:"warmup"`
	// Quantiles enables per-hop and end-to-end latency histograms, same
	// contract as Config.Quantiles: off by default, never changes the
	// event trajectory.
	Quantiles bool `json:"quantiles,omitempty"`
}

// Topology lifts the flat config into its one-node topology: a single
// segment named "bus" with no bridges. The flat simulation is exactly
// this one-segment fabric, so evaluating the lift with BackendSim gives
// the flat run's trajectory and statistics to the last bit.
func (c Config) Topology() Topology {
	c.normalize()
	return Topology{
		Nodes:     []Node{c.node()},
		Seed:      c.Seed,
		Stream:    c.Stream,
		Horizon:   c.Horizon,
		Warmup:    c.Warmup,
		Quantiles: c.Quantiles,
	}
}

// normalize fills each node's empty Mode/Arbiter/Traffic/Service and
// zero Buses with canonical defaults, mirroring Config.normalize. It
// writes a fresh Nodes slice, never the caller's.
func (t *Topology) normalize() {
	nodes := make([]Node, len(t.Nodes))
	for k, n := range t.Nodes {
		if n.Buses == 0 {
			n.Buses = 1
		}
		if n.Processors > 0 {
			if n.Mode == "" {
				n.Mode = ModeUnbuffered
			}
			n.Traffic = n.Traffic.Normalized()
		}
		if n.Arbiter == "" {
			n.Arbiter = RoundRobin.String()
		}
		n.Service = n.Service.Normalized()
		nodes[k] = n
	}
	t.Nodes = nodes
}

// Normalized returns the topology with canonical defaults filled in —
// the value EvaluateTopology echoes back in its results.
func (t Topology) Normalized() Topology {
	t.normalize()
	return t
}

// Validate reports the first configuration error, or nil: busnet-level
// checks (names, the node rules a flat Config shares, run interval)
// followed by the graph-level invariants the internal fabric enforces —
// acyclicity, routes following existing links, no dead links or
// unreachable transit nodes.
func (t Topology) Validate() error {
	_, err := t.lowered()
	return err
}

// lowered is the one lowering of a topology: it normalizes t in place,
// checks it, and returns the run-ready fabric config. Node names resolve
// to segment indices once, here, for links and routes alike; each node's
// strings are parsed by Node.lower. The rules on the lowered specs and
// the graph-level invariants are the fabric's own checks
// (topo.Config.Validate), so the two layers cannot drift apart.
func (t *Topology) lowered() (topo.Config, error) {
	t.normalize()
	if err := checkRun(t.Horizon, t.Warmup); err != nil {
		return topo.Config{}, err
	}
	if len(t.Nodes) == 0 {
		return topo.Config{}, fmt.Errorf("busnet: topology has no nodes")
	}
	idx := make(map[string]int, len(t.Nodes))
	for k, n := range t.Nodes {
		if n.Name == "" {
			return topo.Config{}, fmt.Errorf("busnet: node %d has no name", k)
		}
		if prev, dup := idx[n.Name]; dup {
			return topo.Config{}, fmt.Errorf("busnet: nodes %d and %d share the name %q", prev, k, n.Name)
		}
		idx[n.Name] = k
	}
	cfg := topo.Config{
		Segments:  make([]topo.SegmentConfig, len(t.Nodes)),
		Links:     make([]topo.LinkConfig, len(t.Links)),
		Quantiles: t.Quantiles,
	}
	for i, l := range t.Links {
		from, ok := idx[l.From]
		if !ok {
			return topo.Config{}, fmt.Errorf("busnet: link %d: no node named %q", i, l.From)
		}
		to, ok := idx[l.To]
		if !ok {
			return topo.Config{}, fmt.Errorf("busnet: link %d: no node named %q", i, l.To)
		}
		cfg.Links[i] = topo.LinkConfig{From: from, To: to, Depth: l.Buffer}
	}
	for k := range t.Nodes {
		n := &t.Nodes[k]
		if err := n.lower(&cfg.Segments[k]); err != nil {
			return topo.Config{}, fmt.Errorf("busnet: node %q: %w", n.Name, err)
		}
		for h, hop := range n.Route {
			to, ok := idx[hop]
			if !ok {
				return topo.Config{}, fmt.Errorf("busnet: node %q route hop %d: no node named %q", n.Name, h, hop)
			}
			cfg.Segments[k].Route = append(cfg.Segments[k].Route, to)
		}
	}
	if err := cfg.Validate(); err != nil {
		return topo.Config{}, err
	}
	return cfg, nil
}

// lower is the one lowering of a node, without its route, into the
// fabric segment sc: it parses the mode, arbiter and weights strings
// once and copies the traffic and service specs. It constructs nothing;
// Fabric.Init builds each run's sources, service distribution and
// arbiter. The rules on the lowered specs (rates, shapes, weights
// against claimants, buffer capacity) are the fabric's, applied by
// topo.Config.Validate; lower adds only what the strings say and that a
// transit node leaves the processors' fields unset, since nothing would
// read them there: a NaN or an unknown kind would run and then fail to
// encode. It writes every field of sc but Route and Sources, which the
// caller's zero segment keeps nil until the route is resolved, and
// writes nothing on error.
func (n *Node) lower(sc *topo.SegmentConfig) error {
	if n.Processors == 0 && n.stationField() != "" {
		return fmt.Errorf("%s is set, but the node has no processors to apply it to", n.stationField())
	}
	mode, err := parseMode(n.Mode)
	if err != nil {
		return err
	}
	arbiter, err := ParseArbiter(n.Arbiter)
	if err != nil {
		return err
	}
	weights, err := ParseWeights(n.Weights)
	if err != nil {
		return err
	}
	// Field by field rather than as one literal, which the compiler
	// builds aside and copies in: Validate runs once per sweep point and
	// optimizer candidate, and the copy made it about 8% slower.
	sc.Name = n.Name
	sc.Buses = n.Buses
	sc.ServiceRate = n.ServiceRate
	sc.Service = n.Service
	sc.Arbiter = arbiter
	sc.Weights = weights
	sc.Stations = n.Processors
	sc.ThinkRate = n.ThinkRate
	sc.Traffic = n.Traffic
	sc.Mode = mode
	sc.BufferCap = n.BufferCap
	return nil
}

// stationField names the first field set on n that only processors
// use — ThinkRate, Traffic, Mode, BufferCap — or returns "".
func (n *Node) stationField() string {
	switch {
	case n.ThinkRate != 0:
		return "think rate"
	case n.Traffic != Traffic{}:
		return "traffic"
	case n.Mode != "":
		return "mode"
	case n.BufferCap != 0:
		return "buffer cap"
	}
	return ""
}

// HopResult summarizes one node over the measured interval — the flat
// Results fields plus Blocked, the time-averaged fraction of its buses
// held by blocking-after-service (a subset of Utilization: a blocked
// bus is occupied but transfers nothing). Wait and response are per
// visit to this node (bridge-arrival to grant, and to departure).
type HopResult = topo.SegmentMetrics

// FlowResult summarizes the end-to-end (issue → fabric exit) response
// of the requests originating at one processor-bearing node.
type FlowResult = topo.FlowMetrics

// TopologyResults is the simulation payload of one topology run.
type TopologyResults struct {
	Topology     Topology     `json:"topology"`
	MeasuredTime float64      `json:"measured_time"`
	Events       uint64       `json:"events"`
	Hops         []HopResult  `json:"hops"`
	Flows        []FlowResult `json:"flows"`
	// Diagnostics carries the run's deterministic engine and fabric
	// counters; it covers the whole run from time zero, not the
	// warmup-truncated measured interval.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// NodePrediction is the closed-form steady state of one node of a
// topology under the Jackson (product-form) overlay, annotated with the
// node name and the aggregate arrival rate routing delivers to it.
type NodePrediction struct {
	Node string `json:"node"`
	analytic.HopPrediction
}

// FlowPrediction is the closed-form end-to-end prediction for the flow
// originating at one node: the sum of its hops' mean responses, at the
// flow's aggregate rate.
type FlowPrediction struct {
	Node         string  `json:"node"`
	Rate         float64 `json:"rate"`
	MeanResponse float64 `json:"mean_response"`
}

// TopologyPrediction is the analytic payload: per-node product-form
// steady states and per-flow end-to-end responses, plus the
// rate-weighted network summary.
type TopologyPrediction struct {
	Nodes []NodePrediction `json:"nodes"`
	Flows []FlowPrediction `json:"flows"`
	// Throughput is the total external arrival (= departure) rate.
	Throughput float64 `json:"throughput"`
	// MeanResponse is the rate-weighted mean end-to-end response across
	// flows.
	MeanResponse float64 `json:"mean_response"`
}

// TopologyEvaluation is the backend-independent answer for a topology,
// mirroring Evaluation: shared summary fields for every backend, and
// exactly one non-nil payload pointer.
type TopologyEvaluation struct {
	Backend Backend `json:"backend"`
	// Throughput is the fabric's total exit rate; MeanResponse the
	// rate-weighted mean end-to-end response across flows.
	Throughput   float64 `json:"throughput"`
	MeanResponse float64 `json:"mean_response"`

	// Results is the simulation payload (BackendSim only).
	Results *TopologyResults `json:"results,omitempty"`
	// Analytic is the product-form payload (BackendAnalytic only).
	Analytic *TopologyPrediction `json:"analytic,omitempty"`
	// Diagnostics is the run's deterministic engine/fabric counter block
	// (BackendSim only); it covers the whole run from time zero.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// EvaluateTopology is Evaluate for multi-hop fabrics: one entry point,
// backend selected by name. BackendSim runs the discrete-event fabric —
// deterministic in (Topology, Seed, Stream), warmup truncated exactly
// like the flat path. BackendAnalytic evaluates the Jackson product-
// form overlay: each node an independent M/M/m queue at the aggregate
// arrival rate its routes deliver, each flow's mean end-to-end response
// the sum of its hops'. The overlay is exact when every interface and
// bridge is unbounded — Poisson sources, buffered-infinite interfaces,
// exponential service — and an optimistic bound otherwise, since
// finite bridges can only hold requests longer. It refuses non-Poisson
// traffic, non-exponential service, and unbuffered or finite-buffer
// interfaces, but accepts any bridge depths: cross-check sweeps compare
// it against finite-bridge simulations to measure the blocking penalty.
// BackendFluid has no topology model yet and is refused.
func EvaluateTopology(t Topology, backend Backend) (TopologyEvaluation, error) {
	b, err := ParseBackend(string(backend))
	if err != nil {
		return TopologyEvaluation{}, err
	}
	return evaluateTopology(t, b, nil)
}

// evaluateTopology runs t on the resolved backend b; rec as in evaluate.
func evaluateTopology(t Topology, b Backend, rec *obs.Recorder) (TopologyEvaluation, error) {
	switch b {
	case BackendAnalytic:
		p, err := predictTopology(t)
		if err != nil {
			return TopologyEvaluation{}, err
		}
		return TopologyEvaluation{
			Backend:      b,
			Throughput:   p.Throughput,
			MeanResponse: p.MeanResponse,
			Analytic:     &p,
		}, nil
	case BackendFluid:
		return TopologyEvaluation{}, fmt.Errorf(
			"busnet: no fluid model for topologies — the mean-field balance covers the flat single-segment config only (use %q or %q)",
			BackendSim, BackendAnalytic)
	default:
		res, err := runTopologySim(t, rec)
		if err != nil {
			return TopologyEvaluation{}, err
		}
		// The shared summary: total exit rate and the rate-weighted mean
		// end-to-end response across flows.
		ev := TopologyEvaluation{Backend: b, Results: &res, Diagnostics: res.Diagnostics}
		var rate, weighted float64
		for _, f := range res.Flows {
			if res.MeasuredTime > 0 {
				r := float64(f.Completed) / res.MeasuredTime
				rate += r
				weighted += r * f.MeanResponse
			}
		}
		ev.Throughput = rate
		if rate > 0 {
			ev.MeanResponse = weighted / rate
		}
		return ev, nil
	}
}

// runTopologySim is the discrete-event backend for topologies: the
// lowered fabric run by simulate.
func runTopologySim(t Topology, rec *obs.Recorder) (TopologyResults, error) {
	cfg, err := t.lowered()
	if err != nil {
		return TopologyResults{}, err
	}
	run, err := simulate(cfg, t.Seed, t.Stream, t.Warmup, t.Horizon, rec)
	if err != nil {
		return TopologyResults{}, err
	}
	defer run.release()
	m := run.fabric.Snapshot()
	return TopologyResults{
		Topology:     t,
		MeasuredTime: m.Elapsed,
		Events:       run.events,
		Hops:         m.Segments,
		Flows:        m.Flows,
		Diagnostics:  run.diag,
	}, nil
}

// predictTopology is the product-form backend behind EvaluateTopology:
// the Jackson steady state of a topology, with the domain
// EvaluateTopology documents. Finite bridges can only hold requests
// longer (blocking after service), never shorter, which is why the
// form is an optimistic bound wherever a bridge is finite.
func predictTopology(t Topology) (TopologyPrediction, error) {
	cfg, err := t.lowered()
	if err != nil {
		return TopologyPrediction{}, err
	}
	for k, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		if kind := n.Traffic.Kind; kind != TrafficPoisson {
			return TopologyPrediction{}, fmt.Errorf("busnet: node %q: no product-form model for %s traffic", n.Name, kind)
		}
		if cfg.Segments[k].Mode != bus.Buffered || n.BufferCap != Infinite {
			return TopologyPrediction{}, fmt.Errorf(
				"busnet: node %q: the product-form overlay needs buffered-infinite interfaces (open network); finite or blocking interfaces make arrivals non-Poisson", n.Name)
		}
	}
	for _, n := range t.Nodes {
		if kind := n.Service.Kind; kind != ServiceExponential {
			return TopologyPrediction{}, fmt.Errorf("busnet: node %q: no product-form model for %s service", n.Name, kind)
		}
	}
	// Traffic equations: every flow contributes its aggregate external
	// rate to each node on its lowered route (feed-forward, so no fixed
	// point to solve).
	arrival := make([]float64, len(t.Nodes))
	for k, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		rate := float64(n.Processors) * n.ThinkRate
		arrival[k] += rate
		for _, hop := range cfg.Segments[k].Route {
			arrival[hop] += rate
		}
	}
	p := TopologyPrediction{Nodes: make([]NodePrediction, len(t.Nodes))}
	for k, n := range t.Nodes {
		node, err := analytic.JacksonNode(arrival[k], n.ServiceRate, n.Buses)
		if err != nil {
			return TopologyPrediction{}, fmt.Errorf("busnet: node %q: %w", n.Name, err)
		}
		p.Nodes[k] = NodePrediction{
			Node:          n.Name,
			HopPrediction: analytic.HopPrediction{ArrivalRate: arrival[k], Prediction: node},
		}
	}
	var weighted float64
	for k, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		rate := float64(n.Processors) * n.ThinkRate
		resp := p.Nodes[k].MeanResponse
		for _, hop := range cfg.Segments[k].Route {
			resp += p.Nodes[hop].MeanResponse
		}
		p.Flows = append(p.Flows, FlowPrediction{Node: n.Name, Rate: rate, MeanResponse: resp})
		p.Throughput += rate
		weighted += rate * resp
	}
	if p.Throughput > 0 {
		p.MeanResponse = weighted / p.Throughput
	}
	return p, nil
}
