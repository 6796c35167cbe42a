package busnet

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/analytic"
	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/obs"
	"github.com/busnet/busnet/internal/topo"
	"github.com/busnet/busnet/internal/workload"
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
	c = c.normalized()
	return Topology{
		Nodes:     []Node{c.node()},
		Seed:      c.Seed,
		Stream:    c.Stream,
		Horizon:   c.Horizon,
		Warmup:    c.Warmup,
		Quantiles: c.Quantiles,
	}
}

// normalized fills each node's empty Mode/Arbiter/Traffic/Service and zero
// Buses with canonical defaults, mirroring Config.normalized.
func (t Topology) normalized() Topology {
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
	return t
}

// Normalized returns the topology with canonical defaults filled in —
// the value EvaluateTopology echoes back in its results.
func (t Topology) Normalized() Topology { return t.normalized() }

// nodeIndex maps node names to indices; Validate guarantees uniqueness.
func (t Topology) nodeIndex() map[string]int {
	idx := make(map[string]int, len(t.Nodes))
	for k, n := range t.Nodes {
		if _, dup := idx[n.Name]; !dup {
			idx[n.Name] = k
		}
	}
	return idx
}

// claimants returns node k's claimant count: local processors plus one
// per inbound bridge.
func (t Topology) claimants(k int) int {
	n := t.Nodes[k].Processors
	idx := t.nodeIndex()
	for _, l := range t.Links {
		if to, ok := idx[l.To]; ok && to == k {
			n++
		}
	}
	return n
}

// Validate reports the first configuration error, or nil: busnet-level
// checks (names, modes, arbiters, traffic and service specs, run
// interval) followed by the graph-level invariants the internal fabric
// enforces — acyclicity, routes following existing links, no dead links
// or unreachable transit nodes.
func (t Topology) Validate() error {
	t = t.normalized()
	if len(t.Nodes) == 0 {
		return fmt.Errorf("busnet: topology has no nodes")
	}
	seen := make(map[string]int, len(t.Nodes))
	total := 0
	for k, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("busnet: node %d has no name", k)
		}
		if prev, dup := seen[n.Name]; dup {
			return fmt.Errorf("busnet: nodes %d and %d share the name %q", prev, k, n.Name)
		}
		seen[n.Name] = k
		total += n.Processors
		if n.Processors > 0 {
			if _, err := parseMode(n.Mode); err != nil {
				return fmt.Errorf("busnet: node %q: %w", n.Name, err)
			}
			if math.IsNaN(n.ThinkRate) || n.ThinkRate < 0 || math.IsInf(n.ThinkRate, 1) {
				return fmt.Errorf("busnet: node %q: think rate = %v, need finite and ≥ 0", n.Name, n.ThinkRate)
			}
			if err := n.Traffic.Validate(n.ThinkRate); err != nil {
				return fmt.Errorf("busnet: node %q: %w", n.Name, err)
			}
		} else if f := n.stationField(); n.Processors == 0 && f != "" {
			// Nothing reads these on a transit node, so nothing else would
			// check them: a NaN or an unknown kind would run and then fail
			// to encode.
			return fmt.Errorf("busnet: node %q: %s is set, but the node has no processors to apply it to", n.Name, f)
		}
		kind, err := ParseArbiter(n.Arbiter)
		if err != nil {
			return fmt.Errorf("busnet: node %q: %w", n.Name, err)
		}
		ws, err := ParseWeights(n.Weights)
		if err != nil {
			return fmt.Errorf("busnet: node %q: %w", n.Name, err)
		}
		if kind == WeightedRoundRobin && ws != nil {
			if want := t.claimants(k); len(ws) != want {
				return fmt.Errorf("busnet: node %q: %d weights for %d claimants (processors + inbound bridges)",
					n.Name, len(ws), want)
			}
		}
		if err := n.Service.Validate(n.ServiceRate); err != nil {
			return fmt.Errorf("busnet: node %q: %w", n.Name, err)
		}
	}
	if total > MaxSimProcessors {
		return fmt.Errorf("busnet: topology has %d processors in total, exceeding the discrete-event backend's %d-station bound",
			total, MaxSimProcessors)
	}
	idx := t.nodeIndex()
	for i, l := range t.Links {
		if _, ok := idx[l.From]; !ok {
			return fmt.Errorf("busnet: link %d: no node named %q", i, l.From)
		}
		if _, ok := idx[l.To]; !ok {
			return fmt.Errorf("busnet: link %d: no node named %q", i, l.To)
		}
	}
	for _, n := range t.Nodes {
		for h, hop := range n.Route {
			if _, ok := idx[hop]; !ok {
				return fmt.Errorf("busnet: node %q route hop %d: no node named %q", n.Name, h, hop)
			}
		}
	}
	switch {
	case !(t.Horizon > 0) || math.IsInf(t.Horizon, 1):
		return fmt.Errorf("busnet: horizon = %v, need finite and > 0", t.Horizon)
	case math.IsNaN(t.Warmup) || t.Warmup < 0 || t.Warmup >= t.Horizon:
		return fmt.Errorf("busnet: warmup = %v, need in [0, horizon)", t.Warmup)
	}
	// Graph-level invariants (DAG, routes over links, dead links,
	// station counts, rates, buffer depths) are enforced by the internal
	// fabric config so the two layers cannot drift apart.
	cfg, err := t.topoConfig()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// stationField names the first field set on n that only processors
// use — ThinkRate, Traffic, Mode, BufferCap — or returns "".
func (n Node) stationField() string {
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

// topoConfig lowers the public topology to the internal fabric config,
// building fresh per-station sources and arbiters — both carry run
// state, so every evaluation gets its own. Name resolution errors
// surface here; deeper invariants are left to topo.Config.Validate.
func (t Topology) topoConfig() (topo.Config, error) {
	idx := t.nodeIndex()
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
	for k, n := range t.Nodes {
		claimants := n.Processors
		for _, l := range cfg.Links {
			if l.To == k {
				claimants++
			}
		}
		sc := n.segment(claimants)
		for _, hop := range n.Route {
			h, ok := idx[hop]
			if !ok {
				return topo.Config{}, fmt.Errorf("busnet: node %q route: no node named %q", n.Name, hop)
			}
			sc.Route = append(sc.Route, h)
		}
		cfg.Segments[k] = sc
	}
	return cfg, nil
}

// segment lowers one node, without its route, to a fabric segment,
// building fresh per-station sources, service dist and arbiter — all
// carry run state, so every run gets its own. claimants sizes the
// all-ones weight vector a weighted-round-robin arbiter defaults to.
// Plain Poisson traffic, exponential service and round-robin lower to
// nil, the simulator's built-in defaults. Unknown names and invalid
// specs lower to the defaults too; Validate rejects them first on every
// construction path.
func (n Node) segment(claimants int) topo.SegmentConfig {
	mode, _ := parseMode(n.Mode)
	sc := topo.SegmentConfig{
		Name:        n.Name,
		Buses:       n.Buses,
		ServiceRate: n.ServiceRate,
		Stations:    n.Processors,
		ThinkRate:   n.ThinkRate,
		Mode:        mode,
		BufferCap:   n.BufferCap,
	}
	if spec := n.Traffic.Normalized(); n.Processors > 0 && spec != PoissonTraffic() {
		srcs := make([]workload.Source, n.Processors)
		for i := range srcs {
			src, err := spec.NewSource(n.ThinkRate)
			if err != nil {
				srcs = nil
				break
			}
			srcs[i] = src
		}
		sc.Sources = srcs
	}
	if spec := n.Service.Normalized(); spec != ExponentialService() {
		if d, err := spec.NewDist(n.ServiceRate); err == nil {
			sc.Service = d
		}
	}
	kind, _ := ParseArbiter(n.Arbiter)
	switch kind {
	case FixedPriority:
		sc.Arbiter = bus.NewFixedPriority()
	case WeightedRoundRobin:
		ws, _ := ParseWeights(n.Weights)
		if ws == nil {
			ws = make([]int, max(claimants, 0))
			for i := range ws {
				ws[i] = 1
			}
		}
		if wrr, err := bus.NewWeightedRoundRobin(ws); err == nil {
			sc.Arbiter = wrr
		}
	}
	return sc
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
// validated, lowered fabric run by simulate.
func runTopologySim(t Topology, rec *obs.Recorder) (TopologyResults, error) {
	t = t.normalized()
	if err := t.Validate(); err != nil {
		return TopologyResults{}, err
	}
	cfg, err := t.topoConfig()
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
	t = t.normalized()
	if err := t.Validate(); err != nil {
		return TopologyPrediction{}, err
	}
	idx := t.nodeIndex()
	for _, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		if kind := n.Traffic.Kind; kind != TrafficPoisson {
			return TopologyPrediction{}, fmt.Errorf("busnet: node %q: no product-form model for %s traffic", n.Name, kind)
		}
		if mode, _ := parseMode(n.Mode); mode != bus.Buffered || n.BufferCap != Infinite {
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
	// rate to each node on its path (feed-forward, so no fixed point to
	// solve).
	arrival := make([]float64, len(t.Nodes))
	var flows []FlowPrediction
	var total, weighted float64
	for _, n := range t.Nodes {
		if n.Processors == 0 {
			continue
		}
		rate := float64(n.Processors) * n.ThinkRate
		arrival[idx[n.Name]] += rate
		for _, hop := range n.Route {
			arrival[idx[hop]] += rate
		}
		flows = append(flows, FlowPrediction{Node: n.Name, Rate: rate})
		total += rate
	}
	p := TopologyPrediction{
		Nodes:      make([]NodePrediction, len(t.Nodes)),
		Throughput: total,
	}
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
	for i := range flows {
		n := t.Nodes[idx[flows[i].Node]]
		resp := p.Nodes[idx[n.Name]].MeanResponse
		for _, hop := range n.Route {
			resp += p.Nodes[idx[hop]].MeanResponse
		}
		flows[i].MeanResponse = resp
		weighted += flows[i].Rate * resp
	}
	p.Flows = flows
	if total > 0 {
		p.MeanResponse = weighted / total
	}
	return p, nil
}
