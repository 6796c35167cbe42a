package busnet

import "github.com/busnet/busnet/internal/topo"

// TopologyBuilder assembles a Topology fluently. Methods return the
// builder for chaining and never fail individually; Build validates the
// assembled topology and reports the first error. Fields the methods do
// not cover (Stream, Quantiles, per-node traffic and service shapes)
// are set on the built value, which is a plain Topology.
//
//	t, err := busnet.NewTopology().
//		BufferedSourceNode("cpu", 16, 0.04, 1, busnet.Infinite, "mem").
//		TransitNode("mem", 1).
//		Bridge("cpu", "mem", 4).
//		Seed(42).
//		Build()
type TopologyBuilder struct {
	t Topology
}

// NewTopology starts a builder with the flat defaults: seed 1, horizon
// 100000, 10% warmup.
func NewTopology() *TopologyBuilder {
	return &TopologyBuilder{t: Topology{Seed: 1, Horizon: 100_000, Warmup: 10_000}}
}

// addNode appends a fully specified node.
func (b *TopologyBuilder) addNode(n Node) *TopologyBuilder {
	b.t.Nodes = append(b.t.Nodes, n)
	return b
}

// BufferedSourceNode appends a processor-bearing node whose interfaces
// queue up to cap requests (Infinite for unbounded) so processors keep
// computing — the open-network regime the product-form overlay models.
// route names the nodes visited after this one, in hop order.
func (b *TopologyBuilder) BufferedSourceNode(name string, processors int, thinkRate, serviceRate float64, cap int, route ...string) *TopologyBuilder {
	return b.addNode(Node{
		Name: name, Processors: processors, ThinkRate: thinkRate,
		ServiceRate: serviceRate, Mode: ModeBuffered, BufferCap: cap, Route: route,
	})
}

// TransitNode appends a node with no local processors: a pure bridged
// hop that only serves through-traffic.
func (b *TopologyBuilder) TransitNode(name string, serviceRate float64) *TopologyBuilder {
	return b.addNode(Node{Name: name, ServiceRate: serviceRate})
}

// Bridge connects from → to with a buffer of depth slots (Infinite for
// unbounded). Every consecutive pair in a route needs one.
func (b *TopologyBuilder) Bridge(from, to string, depth int) *TopologyBuilder {
	b.t.Links = append(b.t.Links, Link{From: from, To: to, Buffer: depth})
	return b
}

// Seed sets the experiment seed.
func (b *TopologyBuilder) Seed(seed int64) *TopologyBuilder {
	b.t.Seed = seed
	return b
}

// Horizon sets the run length, rescaling the warmup to keep its
// fraction of the run constant (like Config.AtHorizon).
func (b *TopologyBuilder) Horizon(h float64) *TopologyBuilder {
	if b.t.Horizon > 0 {
		b.t.Warmup = b.t.Warmup / b.t.Horizon * h
	}
	b.t.Horizon = h
	return b
}

// Build validates the assembled topology and returns it normalized, in
// a Nodes slice of its own: one lowering checks the topology and hands
// over each node as it normalized it.
func (b *TopologyBuilder) Build() (Topology, error) {
	t := b.t
	t.Nodes = make([]Node, len(b.t.Nodes))
	var cfg topo.Config
	if err := b.t.lowered(&cfg, t.Nodes); err != nil {
		return Topology{}, err
	}
	return t, nil
}
