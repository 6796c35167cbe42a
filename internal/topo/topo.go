// Package topo is the simulator: every discrete-event run, flat or
// bridged, is a directed acyclic fabric of bus segments connected by
// bridges. Each segment is one arbitration point of the source paper —
// Buses identical multiplexed buses, the arbiters and queueing modes of
// internal/bus — whose claimants are its local stations and the
// bridges delivering traffic from upstream segments. A flat config is a
// fabric of one segment. A request issued by a station follows its
// segment's route hop by hop: it is arbitrated onto a bus of the
// current segment, served, and handed through the connecting bridge
// into the next segment's claimant queue.
//
// Stations alternate between thinking (local work, exponential with
// rate ThinkRate unless Traffic or Sources shape it) and issuing a bus
// transaction. An unbuffered station blocks from the moment it issues
// until its request leaves the fabric; a buffered station queues
// requests at its interface (finite or unbounded capacity) and keeps
// thinking. The arbiter picks which claimant is granted next; the grant
// goes to the lowest-numbered free bus, and each bus serves
// independently.
//
// Bridges have their own finite buffers, and the fabric models
// blocking-after-service (the tandem-blocking discipline): a bus that
// finishes serving a request whose next bridge is full stays occupied,
// holding the request, until the downstream segment drains a slot —
// backpressure propagates upstream through the chain of held buses.
// Because the segment graph is acyclic (validated), the chain of
// releases always terminates and the fabric cannot deadlock.
//
// All randomness flows through the single per-run RNG in a fixed order,
// so a run is bit-reproducible in (Config, RNG seed). The golden tests
// in pkg/busnet and this package pin the one-segment trajectory to the
// values the original single-bus engine produced. Per-segment metrics
// carry the flat statistics plus the time-averaged blocked-bus
// fraction; per-flow metrics add end-to-end (issue → fabric exit)
// response statistics for every station-bearing segment.
package topo

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

// Infinite marks an unbounded buffer — per-station interface queues and
// bridge buffers alike.
const Infinite = bus.Infinite

// SegmentConfig describes one bus segment: an arbitration point with
// Buses identical buses, local request-generating stations, and a route
// its stations' requests follow through the fabric. It is a plain
// description. Fabric.Init builds the run state it names (sources,
// service distribution, arbiter), so validating a segment constructs
// nothing and costs the same at any station count.
type SegmentConfig struct {
	// Name identifies the segment in metrics; must be unique when set.
	Name string
	// Buses is the number of identical parallel buses, m ≥ 1 (0 → 1).
	Buses int
	// ServiceRate is μ, the per-bus service rate.
	ServiceRate float64
	// Service shapes the service time, sampled once per dispatch, with
	// mean 1/ServiceRate in every family. The zero value is the paper's
	// model: exponential, one Exp draw per dispatch.
	Service servdist.Spec
	// Arbiter picks the next claimant — local stations first (indices
	// 0..Stations-1), then one claimant per inbound bridge in link
	// order. The zero value is round-robin.
	Arbiter bus.ArbiterKind
	// Weights are the weighted-round-robin arbiter's weights, one ≥ 1
	// per claimant; empty means all ones. Other arbiters ignore them.
	Weights []int
	// Stations is the number of local request-generating stations ≥ 0.
	// Zero makes this a pure transit segment (a bridge hop).
	Stations int
	// ThinkRate is λ, each station's request rate while thinking, for
	// the traffic kinds that consume it; the others ignore it.
	ThinkRate float64
	// Traffic shapes every station's request generation, consulted each
	// time a station re-enters the thinking state. The zero value is the
	// paper's model: Poisson think times at ThinkRate.
	Traffic workload.Spec
	// Sources, when set, replaces Traffic with one given source per
	// station: the seam for scripted or per-station shapes. ThinkRate
	// and Traffic are then not consulted.
	Sources []workload.Source
	// Mode is the station-interface regime: bus.Unbuffered blocks the
	// issuing station until its request exits the fabric (the multi-hop
	// extension of the paper's blocking regime); bus.Buffered queues at
	// the local interface up to BufferCap.
	Mode bus.Mode
	// BufferCap is the per-station interface capacity in Buffered mode;
	// Infinite for unbounded.
	BufferCap int
	// Route lists the segments a local request visits after this one, in
	// hop order; each consecutive pair must be connected by a link. Empty
	// means requests complete locally (the single-bus model). Transit
	// segments must leave it empty.
	Route []int
}

// buses resolves the configured bus count: 0 means one.
func (c SegmentConfig) buses() int {
	if c.Buses == 0 {
		return 1
	}
	return c.Buses
}

// Validate reports the first error in the segment's own fields — the
// checks that hold whatever fabric surrounds it — or nil. Each rule is
// stated on the spec it governs: the service spec against ServiceRate,
// the arbiter kind and its weights, and the traffic spec against
// ThinkRate. Config.Validate runs it on every segment before the
// graph-level checks, which add that weights cover every claimant. It
// allocates nothing on success.
func (c *SegmentConfig) Validate() error {
	switch {
	case c.Buses < 0:
		return fmt.Errorf("Buses = %d, need ≥ 1 (or 0 for one)", c.Buses)
	case c.Stations < 0:
		return fmt.Errorf("Stations = %d, need ≥ 0", c.Stations)
	case c.Stations == 0 && len(c.Route) != 0:
		return fmt.Errorf("a route but no stations to originate it")
	case c.Stations == 0 && c.Sources != nil:
		return fmt.Errorf("sources but no stations")
	case c.Arbiter < bus.RoundRobin || c.Arbiter > bus.WeightedRoundRobin:
		return fmt.Errorf("unknown arbiter %d", int(c.Arbiter))
	}
	if err := c.Service.Validate(c.ServiceRate); err != nil {
		return err
	}
	if c.Arbiter == bus.WeightedRoundRobin {
		for i, w := range c.Weights {
			if w < 1 {
				return fmt.Errorf("Weights[%d] = %d, need ≥ 1", i, w)
			}
		}
	}
	switch {
	case c.Stations == 0:
		return nil
	case c.Sources != nil && len(c.Sources) != c.Stations:
		return fmt.Errorf("%d sources for %d stations", len(c.Sources), c.Stations)
	case c.Sources == nil && (math.IsNaN(c.ThinkRate) || c.ThinkRate < 0 || math.IsInf(c.ThinkRate, 1)):
		// Kinds that ignore ThinkRate still carry it, so it must at least
		// be finite and nonnegative; kinds that consume it need > 0, since
		// an infinite rate would draw 0 forever and freeze the clock.
		return fmt.Errorf("ThinkRate = %v, need finite and ≥ 0", c.ThinkRate)
	case c.Mode != bus.Unbuffered && c.Mode != bus.Buffered:
		return fmt.Errorf("unknown mode %d", int(c.Mode))
	case c.Mode == bus.Buffered && c.BufferCap != Infinite && c.BufferCap < 1:
		return fmt.Errorf("BufferCap = %d, need ≥ 1 or Infinite", c.BufferCap)
	}
	if c.Sources == nil {
		return c.Traffic.Validate(c.ThinkRate)
	}
	for i, src := range c.Sources {
		if src == nil {
			return fmt.Errorf("Sources[%d] is nil", i)
		}
	}
	return nil
}

// LinkConfig is a directed bridge between two segments with its own
// finite buffer.
type LinkConfig struct {
	From, To int
	// Depth is the bridge buffer capacity ≥ 1, or Infinite. A request
	// finishing service at From when the bridge is full blocks its bus
	// (blocking-after-service) until To drains a slot.
	Depth int
}

// Config describes one fabric instance.
type Config struct {
	Segments []SegmentConfig
	Links    []LinkConfig
	// Quantiles enables per-hop wait/response histograms and per-flow
	// end-to-end response histograms. Off by default: the histogram
	// updates sit on the dispatch and completion hot paths. Histograms
	// draw nothing from the RNG, so toggling this never changes the
	// event trajectory.
	Quantiles bool
}

// claimants returns segment k's claimant count: local stations plus one
// per inbound link.
func (c Config) claimants(k int) int {
	n := c.Segments[k].Stations
	for _, l := range c.Links {
		if l.To == k {
			n++
		}
	}
	return n
}

// link returns the index of the link from → to, or -1.
func (c Config) link(from, to int) int {
	for i, l := range c.Links {
		if l.From == from && l.To == to {
			return i
		}
	}
	return -1
}

// onRoute reports whether some segment's route crosses from → to.
func (c Config) onRoute(from, to int) bool {
	for k := range c.Segments {
		prev := k
		for _, hop := range c.Segments[k].Route {
			if prev == from && hop == to {
				return true
			}
			prev = hop
		}
	}
	return false
}

// routed reports whether some segment's route visits segment k.
func (c Config) routed(k int) bool {
	for i := range c.Segments {
		for _, hop := range c.Segments[i].Route {
			if hop == k {
				return true
			}
		}
	}
	return false
}

// Validate reports the first configuration error, or nil. Beyond every
// segment's own checks (SegmentConfig.Validate), it requires unique
// names, the link graph to be a DAG (acyclicity is what guarantees
// blocking-after-service cannot deadlock), every route to follow
// existing links, and every link and transit segment to lie on at least
// one route. The graph checks scan rather than index, so validating a
// fabric allocates nothing on success; fabrics are small.
func (c Config) Validate() error {
	if len(c.Segments) == 0 {
		return fmt.Errorf("topo: no segments")
	}
	stations := 0
	for k := range c.Segments {
		s := &c.Segments[k]
		for prev := range k {
			if s.Name != "" && c.Segments[prev].Name == s.Name {
				return fmt.Errorf("topo: segments %d and %d share the name %q", prev, k, s.Name)
			}
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("topo: segment %d: %w", k, err)
		}
		stations += s.Stations
		for h, hop := range s.Route {
			if hop < 0 || hop >= len(c.Segments) {
				return fmt.Errorf("topo: segment %d route hop %d = %d, need in [0, %d)", k, h, hop, len(c.Segments))
			}
		}
	}
	if stations == 0 {
		return fmt.Errorf("topo: no segment has stations — nothing generates requests")
	}
	for i, l := range c.Links {
		if l.From < 0 || l.From >= len(c.Segments) || l.To < 0 || l.To >= len(c.Segments) {
			return fmt.Errorf("topo: link %d connects %d → %d, segments are [0, %d)", i, l.From, l.To, len(c.Segments))
		}
		if l.From == l.To {
			return fmt.Errorf("topo: link %d is a self-loop on segment %d", i, l.From)
		}
		if prev := c.link(l.From, l.To); prev != i {
			return fmt.Errorf("topo: links %d and %d both connect %d → %d", prev, i, l.From, l.To)
		}
		if l.Depth != Infinite && l.Depth < 1 {
			return fmt.Errorf("topo: link %d: Depth = %d, need ≥ 1 or Infinite", i, l.Depth)
		}
	}
	if err := c.checkAcyclic(); err != nil {
		return err
	}
	for k := range c.Segments {
		prev := k
		for h, hop := range c.Segments[k].Route {
			if c.link(prev, hop) < 0 {
				return fmt.Errorf("topo: segment %d route hop %d needs a link %d → %d", k, h, prev, hop)
			}
			prev = hop
		}
	}
	for i, l := range c.Links {
		if !c.onRoute(l.From, l.To) {
			return fmt.Errorf("topo: link %d (%d → %d) is on no route", i, l.From, l.To)
		}
	}
	for k := range c.Segments {
		if c.Segments[k].Stations == 0 && !c.routed(k) {
			return fmt.Errorf("topo: segment %d has no stations and is on no route", k)
		}
	}
	// Weighted round-robin weights cover every claimant: local stations
	// plus inbound bridges.
	for k := range c.Segments {
		s := &c.Segments[k]
		if s.Arbiter == bus.WeightedRoundRobin && len(s.Weights) > 0 && len(s.Weights) != c.claimants(k) {
			return fmt.Errorf("topo: segment %d: %d weights for %d claimants (stations + inbound bridges)", k, len(s.Weights), c.claimants(k))
		}
	}
	return nil
}

// checkAcyclic runs Kahn's algorithm over the link graph. A cycle of
// bridges would let blocking-after-service form a circular wait. Up to
// 32 segments, its in-degrees and queue live on the stack.
func (c Config) checkAcyclic() error {
	if len(c.Links) == 0 {
		return nil
	}
	n := len(c.Segments)
	var small [64]int
	scratch := small[:]
	if 2*n > len(small) {
		scratch = make([]int, 2*n)
	}
	indeg, queue := scratch[:n], scratch[n:n]
	for _, l := range c.Links {
		indeg[l.To]++
	}
	for k, d := range indeg {
		if d == 0 {
			queue = append(queue, k)
		}
	}
	// Each segment joins the queue at most once, so it never outgrows
	// its n slots.
	seen := 0
	for ; seen < len(queue); seen++ {
		for _, l := range c.Links {
			if l.From == queue[seen] {
				if indeg[l.To]--; indeg[l.To] == 0 {
					queue = append(queue, l.To)
				}
			}
		}
	}
	if seen != n {
		return fmt.Errorf("topo: the bridge graph has a cycle — blocking-after-service would deadlock")
	}
	return nil
}

// request is one in-flight transaction, held by value on a bus or in a
// bridge queue. A station's own queue holds only issue times: a request
// waiting at its home interface is fully described by its station and
// issue time, so the request value is built when the arbiter grants it.
// enqueuedAt is reset at each hop (arrival into the current claimant
// queue) while issuedAt keeps the original issue time for end-to-end
// response.
type request struct {
	path       *path // nil marks an idle bus
	local      int32 // station index within the home segment
	hop        int32 // bridges crossed so far: path.links[hop] is the next
	issuedAt   float64
	enqueuedAt float64
}

// path is the precomputed route of one home segment: the link crossed
// after each hop. A request exits the fabric at the segment it reaches
// after crossing every link.
type path struct {
	home  *segment
	links []*link
}

// link is a bridge. Its buffer is the destination segment's claimant
// queue at index claimant; waiters holds upstream buses blocked after
// service, oldest first.
type link struct {
	cfg      LinkConfig
	idx      int // index in Config.Links, identifying it to probes
	from, to *segment
	claimant int
	waiters  []blockedEntry
}

// blockedEntry identifies one blocked upstream bus; the held request is
// seg.buses[b].req.
type blockedEntry struct {
	seg   *segment
	b     int
	since float64 // when the bus blocked, for BridgeRelease's blockedFor
}

// queue returns the bridge's buffer: its claimant queue downstream.
func (l *link) queue() *ring[request] { return &l.to.bridgeQ[l.claimant-l.to.stations] }

// hasSpace reports whether the bridge can accept one more request.
func (l *link) hasSpace() bool {
	return l.cfg.Depth == Infinite || l.queue().len() < l.cfg.Depth
}

// advance moves r through the bridge into the destination's claimant
// queue. Callers kick the destination's dispatch when appropriate.
func (l *link) advance(r request, now float64) {
	r.hop++
	r.enqueuedAt = now
	q := l.queue()
	q.push(r)
	l.to.arrive(l.claimant, now)
	l.to.fab.crossings++
	if p := l.to.probe; p != nil {
		p.BridgeEnqueue(now, l.idx, q.len())
	}
}

// admitBlocked releases the oldest blocked upstream bus into the slot a
// pop just freed: the upstream hop completes now (its response includes
// the blocked time), the request crosses the bridge, and the freed
// upstream bus may dispatch — which can recursively release buses
// further upstream. The link graph is a DAG, so the recursion depth is
// bounded by the longest path.
func (l *link) admitBlocked(now float64) {
	if len(l.waiters) == 0 {
		return
	}
	e := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	us, b := e.seg, e.b
	if p := us.probe; p != nil {
		p.BridgeRelease(now, l.idx, us.idx, b, now-e.since)
	}
	r := us.buses[b].req
	us.depart(b, r.enqueuedAt, now)
	us.blocked--
	us.blockedTW.Set(float64(us.blocked)/float64(us.nBuses), now)
	l.advance(r, now)
	us.tryDispatch()
}

// busSlot is one bus of a segment: the request occupying it (serving,
// or blocked after service), its dispatch time, its busy time, and its
// completion callback, built once so the dispatch hot path schedules
// without allocating a closure per grant. The bus is busy from a grant
// until its request departs; busy adds up those intervals over the
// measured window, and since is where the open one started counting:
// the grant, or the ResetStats time for a bus busy at warmup.
type busSlot struct {
	req      request
	start    float64
	since    float64
	busy     float64
	complete func()
}

// flowStats holds the end-to-end (issue → fabric exit) statistics of a
// station segment's flow.
type flowStats struct {
	resp     sim.Tally
	respHist *sim.Histogram // nil unless Config.Quantiles
	done     uint64
}

// segmentMem is the memory behind a segment's pointers that Fabric.Init
// keeps from one fabric to the next: the route, the run state built from
// the segment's specs (sources, service distribution, arbiters), the
// flow's collectors, and the histograms. It lives apart from segment so
// that the fields the event path reads keep the compact layout they had
// before fabrics were recycled (docs/perf.md, "Replication recycling").
type segmentMem struct {
	route path
	// sources were built from traffic at thinkRate, and service from
	// serviceSpec at serviceRate: a run of the same specs and rates
	// reuses them.
	sources     []workload.Source
	traffic     workload.Spec
	thinkRate   float64
	service     servdist.Dist // nil until built
	serviceSpec servdist.Spec
	serviceRate float64
	rr          bus.RoundRobinArbiter
	fp          bus.FixedPriorityArbiter
	wrr         *bus.WeightedRoundRobinArbiter // nil until a fabric runs explicit weights
	flow        flowStats
	hists       *segmentHists // nil until a fabric collects quantiles
}

// buildSources fills m.sources with one source per station of sc, from
// its traffic spec at its think rate: one shared source for Poisson,
// which is stateless, and one each for the other kinds. Sources the
// previous run built from the same spec and rate are reset and reused;
// the rest are built. On error m keeps no sources.
func (m *segmentMem) buildSources(sc *SegmentConfig) error {
	kept := 0
	if m.traffic == sc.Traffic && m.thinkRate == sc.ThinkRate {
		kept = min(len(m.sources), sc.Stations)
	}
	m.traffic, m.thinkRate = sc.Traffic, sc.ThinkRate
	shared := sc.Traffic.Normalized().Kind == workload.KindPoisson
	old := m.sources[:kept]
	m.sources = reuse(m.sources, sc.Stations)
	copy(m.sources, old) // a grown slice starts empty
	for i := range m.sources {
		switch {
		case i < kept:
			workload.Reset(m.sources[i])
		case i > 0 && shared:
			// One Poisson source serves every station with the same
			// draw sequence as one instance each.
			m.sources[i] = m.sources[0]
		default:
			src, err := sc.Traffic.NewSource(sc.ThinkRate)
			if err != nil {
				m.sources = m.sources[:0]
				return err
			}
			m.sources[i] = src
		}
	}
	return nil
}

// buildService sets m.service to sc's service distribution, built from
// its spec at its rate unless the previous run's was. A distribution
// is stateless, so reusing one changes no draw.
func (m *segmentMem) buildService(sc *SegmentConfig) error {
	if m.service != nil && m.serviceSpec == sc.Service && m.serviceRate == sc.ServiceRate {
		return nil
	}
	d, err := sc.Service.NewDist(sc.ServiceRate)
	if err != nil {
		m.service = nil
		return err
	}
	m.service, m.serviceSpec, m.serviceRate = d, sc.Service, sc.ServiceRate
	return nil
}

// segmentHists is the histogram memory of a segment collecting
// quantiles: the per-hop wait and response histograms and the flow's
// end-to-end response histogram. Each takes its buckets on its first
// Add and keeps them through Reset.
type segmentHists struct {
	wait, resp, flow sim.Histogram
}

// segment is the runtime state of one arbitration point. Fabric.Init
// rebuilds it in place; the slices, closures and memory it holds are
// reused from the slot's previous occupant when their capacity allows.
type segment struct {
	idx       int
	name      string
	stations  int
	mode      bus.Mode
	bufferCap int
	fab       *Fabric
	eng       *sim.Engine
	rng       *sim.RNG
	nBuses    int
	path      *path             // &mem.route, or nil for transit segments
	sources   []workload.Source // Config's Sources, or mem.sources
	service   servdist.Dist
	arbiter   bus.Arbiter // &mem.rr, or built for this run
	probe     Probe       // the fabric's, copied here for the hot path

	// Claimant j < stations is local station j, whose queue holds issue
	// times; claimant stations+i is inbound bridge i, whose queue holds
	// requests in transit.
	stationQ []ring[float64]
	bridgeQ  []ring[request]
	inbound  []*link   // inbound[i] feeds claimant stations+i
	pending  []uint64  // bit j&63 of word j>>6 is set while claimant j's queue is nonempty; len(grants) claimants
	stalled  []float64 // Buffered finite: issue time of the request held at a full interface; NaN when none
	queued   int       // waiting requests across all claimant queues
	busy     int       // buses occupied: serving or blocked-after-service
	blocked  int       // buses held by a full downstream bridge
	buses    []busSlot
	issueFn  []func() // per-station issue callbacks, built once
	live     int      // requests issued here and not yet exited

	blockedTW   sim.TimeWeighted // fraction of buses blocked after service
	qlen        sim.TimeWeighted // waiting requests, excluding those on a bus
	wait        sim.Tally        // claimant-queue arrival → service start, per hop
	resp        sim.Tally        // claimant-queue arrival → segment departure, per hop
	waitHist    *sim.Histogram   // &mem.hists.wait, or nil without quantiles
	respHist    *sim.Histogram
	issued      uint64
	completions uint64
	grants      []uint64

	// flow collects the end-to-end statistics of the requests issued
	// here. It is nil on transit segments, and on station segments whose
	// flow ends here with no bridge feeding them: there every departure
	// is one of the segment's own requests leaving the fabric, with
	// enqueuedAt equal to issuedAt, so the hop collectors already are
	// the flow's. Otherwise it is &mem.flow.
	flow *flowStats

	mem *segmentMem
}

// Fabric is the simulated multi-segment system. It is not safe for
// concurrent use; all mutation happens inside engine callbacks.
type Fabric struct {
	eng        *sim.Engine
	segs       []segment
	statsStart float64

	stalls    uint64 // requests held at a full buffered-finite interface
	crossings uint64 // requests handed through any bridge
	blocks    uint64 // blocking-after-service events

	links []link // the bridges, addressed through pointers elsewhere
	// snap lists the histograms Snapshot copies; its capacity carries
	// from one fabric to the next.
	snap []*sim.Histogram
}

// New validates cfg and builds the fabric it describes on the given
// engine and RNG: Init on a zero Fabric. Start must be called to
// schedule the initial think completions.
func New(cfg Config, eng *sim.Engine, rng *sim.RNG) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := new(Fabric)
	if err := f.Init(cfg, eng, rng); err != nil {
		return nil, err
	}
	return f, nil
}

// Init builds the fabric cfg describes into f, on the given engine and
// RNG, exactly as New would: every statistic, counter and queue starts
// empty, no probe is attached, and Start must be called next. It is the
// one place a segment's specs become run state: each station's source
// from Traffic (one shared source for Poisson, which is stateless, one
// each for the other kinds), the service distribution from Service, and
// the arbiter from Arbiter and Weights. It reuses f's memory from any
// earlier fabric — segment and link arrays, claimant queues, arbiters,
// per-station and per-bus callbacks, histograms — wherever the capacity
// suffices, whatever shape that fabric had, and the sources and service
// distribution of a segment whose specs and rates are unchanged, reset
// to the state a fresh build has, so a worker running replication after
// replication stops allocating them. What cfg supplies (Sources and its
// slice, Weights, Route) serves this run only: Init never writes into
// it, and no later Init reuses it. The earlier fabric's run must be
// over, with its engine Reset or discarded: a pending event would call
// into the new one. cfg must have passed Validate: Init does not check
// it again, so a caller that has just validated cfg, as each
// replication's lowering does, pays for the check once. On error f is
// unusable until the next successful Init.
func (f *Fabric) Init(cfg Config, eng *sim.Engine, rng *sim.RNG) error {
	segs := f.segs
	if cap(segs) < len(cfg.Segments) {
		// A segment's callbacks capture its address, so a grown array
		// starts from zero segments rather than copying stale ones.
		segs = make([]segment, len(cfg.Segments))
	}
	now := eng.Now()
	*f = Fabric{
		eng:        eng,
		segs:       segs[:len(cfg.Segments)],
		links:      reuse(f.links, len(cfg.Links)),
		snap:       f.snap,
		statsStart: now,
	}
	for k, sc := range cfg.Segments {
		s := &f.segs[k]
		prev := *s // the slot's previous occupant, for its memory
		m := prev.mem
		if m == nil {
			m = new(segmentMem)
		}
		m.route = path{links: m.route.links[:0]}
		m.rr = *bus.NewRoundRobin()
		m.flow = flowStats{}
		*s = segment{
			idx:       k,
			name:      sc.Name,
			stations:  sc.Stations,
			mode:      sc.Mode,
			bufferCap: sc.BufferCap,
			fab:       f,
			eng:       eng,
			rng:       rng,
			nBuses:    sc.buses(),
			sources:   sc.Sources,
			arbiter:   &m.rr,
			stationQ:  reuse(prev.stationQ, sc.Stations),
			bridgeQ:   prev.bridgeQ,
			inbound:   prev.inbound[:0],
			pending:   prev.pending,
			stalled:   reuse(prev.stalled, sc.Stations),
			buses:     reuse(prev.buses, sc.buses()),
			issueFn:   reuse(prev.issueFn, sc.Stations),
			grants:    prev.grants,
			mem:       m,
		}
		if s.sources == nil && sc.Stations > 0 {
			if err := m.buildSources(&sc); err != nil {
				return err
			}
			s.sources = m.sources
		}
		if err := m.buildService(&sc); err != nil {
			return err
		}
		s.service = m.service
		// Every arbiter is recycled. Round-robin also serves weighted
		// round-robin with its all-ones default: it grants, and counts
		// scanned slots, exactly as round-robin does. Explicit weights
		// run on the weighted arbiter, which copies them into its own
		// vector.
		switch {
		case sc.Arbiter == bus.FixedPriority:
			m.fp = *bus.NewFixedPriority()
			s.arbiter = &m.fp
		case sc.Arbiter == bus.WeightedRoundRobin && len(sc.Weights) > 0:
			if m.wrr == nil {
				m.wrr = new(bus.WeightedRoundRobinArbiter)
			}
			if err := m.wrr.Reset(sc.Weights); err != nil {
				return err
			}
			s.arbiter = m.wrr
		}
		if cfg.Quantiles {
			if m.hists == nil {
				m.hists = new(segmentHists)
			}
			m.hists.wait.Reset()
			m.hists.resp.Reset()
			s.waitHist, s.respHist = &m.hists.wait, &m.hists.resp
		}
		for i := range s.stationQ {
			s.stationQ[i].reset()
		}
		switch {
		case sc.Mode == bus.Unbuffered:
			// A blocked station never has more than one request queued.
			carve(s.stationQ, 1)
		case sc.BufferCap != Infinite:
			carve(s.stationQ, sc.BufferCap)
		}
		for i := range s.issueFn {
			s.stalled[i] = math.NaN()
			if s.issueFn[i] == nil {
				s.issueFn[i] = func() { s.issue(i) }
			}
		}
		for b := range s.buses {
			slot := &s.buses[b]
			*slot = busSlot{complete: slot.complete}
			if slot.complete == nil {
				slot.complete = func() { s.complete(b) }
			}
		}
		s.blockedTW.Set(0, now)
		s.qlen.Set(0, now)
	}
	// Wire claimant queues: local stations first, then inbound bridges
	// in link order — the indexing weight vectors are validated against.
	for i, lc := range cfg.Links {
		l := &f.links[i]
		*l = link{cfg: lc, idx: i, from: &f.segs[lc.From], to: &f.segs[lc.To], waiters: l.waiters[:0]}
	}
	for k := range f.segs {
		s := &f.segs[k]
		for i := range f.links {
			if l := &f.links[i]; l.cfg.To == k {
				l.claimant = s.stations + len(s.inbound)
				s.inbound = append(s.inbound, l)
			}
		}
		n := s.stations + len(s.inbound)
		s.pending = reuse(s.pending, (n+63)>>6)
		clear(s.pending)
		s.grants = reuse(s.grants, n)
		clear(s.grants)
		s.bridgeQ = reuse(s.bridgeQ, len(s.inbound))
		for i, l := range s.inbound {
			s.bridgeQ[i].reset()
			if l.cfg.Depth != Infinite {
				carve(s.bridgeQ[i:i+1], l.cfg.Depth)
			}
		}
		if s.stations == 0 {
			continue
		}
		// Precompute the segment's path once; every request of the
		// segment shares it.
		p := &s.mem.route
		p.home = s
		prev := k
		for _, hop := range cfg.Segments[k].Route {
			p.links = append(p.links, &f.links[cfg.link(prev, hop)])
			prev = hop
		}
		s.path = p
		if len(p.links) > 0 || len(s.inbound) > 0 {
			s.flow = &s.mem.flow
			if cfg.Quantiles {
				s.mem.hists.flow.Reset()
				s.flow.respHist = &s.mem.hists.flow
			}
		}
	}
	return nil
}

// reuse returns buf resliced to n elements when its capacity allows,
// else a new slice. The elements keep whatever an earlier use left in
// them; callers reinitialize every one.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Start schedules the first think completion for every station, in
// segment order then station order.
func (f *Fabric) Start() {
	for k := range f.segs {
		s := &f.segs[k]
		for i := range s.stations {
			s.scheduleThink(i)
		}
	}
}

// Live returns the number of requests issued and not yet exited —
// waiting, stalled, in service, or blocked anywhere in the fabric.
// Exposed for conservation checks in tests.
func (f *Fabric) Live() int {
	n := 0
	for k := range f.segs {
		n += f.segs[k].live
	}
	return n
}

func (s *segment) scheduleThink(i int) {
	s.eng.Schedule(s.sources[i].Next(s.rng), s.issueFn[i])
}

// issue fires when station i of this segment finishes thinking and
// presents a request to its interface.
func (s *segment) issue(i int) {
	now := s.eng.Now()
	s.issued++
	s.live++
	switch s.mode {
	case bus.Unbuffered:
		// The station blocks: no further thinking is scheduled until its
		// request exits the fabric.
		s.enqueue(i, now, now)
		s.tryDispatch()
	case bus.Buffered:
		if s.bufferCap == Infinite || s.stationQ[i].len() < s.bufferCap {
			s.enqueue(i, now, now)
			s.scheduleThink(i)
			s.tryDispatch()
		} else {
			// Interface full: the request is held at the station, which
			// stalls until the segment drains a slot. The original issue
			// time is kept so its waiting time includes the stall.
			s.stalled[i] = now
			s.fab.stalls++
			if p := s.probe; p != nil {
				p.HopStall(now, s.idx, i)
			}
		}
	}
}

// enqueue queues station i's request issued at issuedAt.
func (s *segment) enqueue(i int, issuedAt, now float64) {
	s.stationQ[i].push(issuedAt)
	s.arrive(i, now)
}

// arrive accounts for one request joining claimant j's queue.
func (s *segment) arrive(j int, now float64) {
	s.pending[j>>6] |= 1 << (j & 63)
	s.queued++
	s.qlen.Set(float64(s.queued), now)
}

// freeBus returns the lowest-numbered idle bus; callers guarantee one
// exists. Blocked buses are occupied, never returned. The low-index
// preference concentrates load on bus 0 — visible in the per-bus
// utilizations — without affecting any aggregate.
func (s *segment) freeBus() int {
	for b := range s.buses {
		if s.buses[b].req.path == nil {
			return b
		}
	}
	panic("topo: freeBus called with every bus occupied")
}

// tryDispatch grants waiting requests to the arbiter's picks while any
// bus is idle and any claimant has a waiting request. With one bus this
// dispatches at most one request per call; with m buses it drains up to
// m grants back to back at the same instant, each onto the lowest-
// numbered free bus. A pop from a station queue admits that station's
// stalled request; a pop from a bridge frees a bridge slot and
// therefore releases the oldest blocked upstream bus.
func (s *segment) tryDispatch() {
	for s.busy < s.nBuses && s.queued > 0 {
		now := s.eng.Now()
		j := s.arbiter.Pick(s.pending, len(s.grants))
		var r request
		var empty bool
		if j < s.stations {
			q := &s.stationQ[j]
			t := q.pop()
			empty = q.len() == 0
			r = request{path: s.path, local: int32(j), issuedAt: t, enqueuedAt: t}
		} else {
			q := &s.bridgeQ[j-s.stations]
			r = q.pop()
			empty = q.len() == 0
		}
		if empty {
			s.pending[j>>6] &^= 1 << (j & 63)
		}
		s.queued--
		s.qlen.Set(float64(s.queued), now)
		s.grants[j]++
		s.wait.Add(now - r.enqueuedAt)
		if s.waitHist != nil {
			s.waitHist.Add(now - r.enqueuedAt)
		}

		if j >= s.stations {
			s.inbound[j-s.stations].admitBlocked(now)
		} else if t := s.stalled[j]; !math.IsNaN(t) {
			// Popping freed a slot at interface j; admit the stalled
			// request and let the station think again.
			s.stalled[j] = math.NaN()
			s.enqueue(j, t, now)
			s.scheduleThink(j)
		}

		b := s.freeBus()
		slot := &s.buses[b]
		slot.req = r
		slot.start = now
		slot.since = now
		s.busy++
		if p := s.probe; p != nil {
			p.HopGrant(now, s.idx, j, b, now-r.enqueuedAt)
		}
		s.eng.Schedule(s.service.Sample(s.rng), slot.complete)
	}
}

// depart records the end of a visit to this segment on bus b by a
// request that joined its claimant queue at enqueuedAt, and frees the
// bus — for a bus blocked after service; complete writes the same
// steps out for every other visit. It never draws from the RNG.
func (s *segment) depart(b int, enqueuedAt, now float64) {
	s.resp.Add(now - enqueuedAt)
	if s.respHist != nil {
		s.respHist.Add(now - enqueuedAt)
	}
	s.completions++
	slot := &s.buses[b]
	slot.req.path = nil // frees the bus; the stale fields are never read
	slot.busy += now - slot.since
	s.busy--
	if p := s.probe; p != nil {
		p.HopComplete(now, s.idx, b, now-slot.start)
	}
}

// complete fires when bus b of this segment finishes its transaction.
func (s *segment) complete(b int) {
	now := s.eng.Now()
	slot := &s.buses[b]
	r := slot.req
	var next *link
	if int(r.hop) < len(r.path.links) {
		if next = r.path.links[r.hop]; !next.hasSpace() {
			// Blocking after service: the bridge is full, so the bus
			// stays occupied holding the finished request. Its visit
			// (and the hop response tally) ends only when admitBlocked
			// pulls it through.
			s.blocked++
			s.blockedTW.Set(float64(s.blocked)/float64(s.nBuses), now)
			s.fab.blocks++
			if p := s.probe; p != nil {
				p.BridgeBlock(now, next.idx, s.idx, b)
			}
			next.waiters = append(next.waiters, blockedEntry{seg: s, b: b, since: now})
			return
		}
	}
	// The visit ends now. This is depart written out: every flat event
	// passes here, and the call alone measured about 2% of its cost.
	s.resp.Add(now - r.enqueuedAt)
	if s.respHist != nil {
		s.respHist.Add(now - r.enqueuedAt)
	}
	s.completions++
	slot.req.path = nil
	slot.busy += now - slot.since
	s.busy--
	if p := s.probe; p != nil {
		p.HopComplete(now, s.idx, b, now-slot.start)
	}
	if next != nil {
		next.advance(r, now)
		next.to.tryDispatch()
	} else {
		// The request exits the fabric. The update order — per-hop
		// stats, free the bus, release the blocked station, dispatch —
		// is the single-bus model's, which the goldens pin.
		home := r.path.home
		if fl := home.flow; fl != nil {
			fl.resp.Add(now - r.issuedAt)
			if fl.respHist != nil {
				fl.respHist.Add(now - r.issuedAt)
			}
			fl.done++
		}
		home.live--
		if home.mode == bus.Unbuffered {
			home.scheduleThink(int(r.local))
		}
	}
	s.tryDispatch()
}

// ResetStats discards accumulated statistics on every segment and flow
// and restarts collection at the current time, preserving fabric state
// — the warmup-truncation hook. The collectors keep their live values
// (occupied buses, blocked fraction, current queue depth) and restart
// integration at now, so the state carries across the truncation point
// while its history is dropped.
func (f *Fabric) ResetStats() {
	now := f.eng.Now()
	f.statsStart = now
	for k := range f.segs {
		s := &f.segs[k]
		s.wait.Reset()
		s.resp.Reset()
		if s.waitHist != nil {
			s.waitHist.Reset()
			s.respHist.Reset()
		}
		if fl := s.flow; fl != nil {
			fl.resp.Reset()
			if fl.respHist != nil {
				fl.respHist.Reset()
			}
			fl.done = 0
		}
		s.issued = 0
		s.completions = 0
		for i := range s.grants {
			s.grants[i] = 0
		}
		s.blockedTW.ResetAt(now)
		for b := range s.buses {
			slot := &s.buses[b]
			slot.busy = 0
			slot.since = now
		}
		s.qlen.ResetAt(now)
	}
}

// SegmentMetrics summarizes one segment over the measured interval.
// Utilization is the time-averaged fraction of occupied buses (the busy
// indicator of the single bus when Buses is 1); BusUtilization breaks
// it down per bus — each bus's busy time over the interval — and
// Utilization is exactly their mean. Blocked is the
// time-averaged fraction of buses held by blocking-after-service (a
// subset of Utilization: a blocked bus is occupied but doing no work).
type SegmentMetrics struct {
	Name           string    `json:"name"`
	Utilization    float64   `json:"utilization"`
	Blocked        float64   `json:"blocked"`
	BusUtilization []float64 `json:"bus_utilization"`
	Throughput     float64   `json:"throughput"`
	MeanQueueLen   float64   `json:"mean_queue_len"`
	MaxQueueLen    float64   `json:"max_queue_len"`
	MeanWait       float64   `json:"mean_wait"`
	WaitStdDev     float64   `json:"wait_std_dev"`
	MaxWait        float64   `json:"max_wait"`
	MeanResponse   float64   `json:"mean_response"`
	Issued         uint64    `json:"issued"`
	Completions    uint64    `json:"completions"`
	Grants         []uint64  `json:"grants"`
	// WaitHist and RespHist are snapshots of the per-hop latency
	// histograms, carved from one backing array; nil unless
	// Config.Quantiles enabled collection.
	WaitHist *sim.Histogram `json:"-"`
	RespHist *sim.Histogram `json:"-"`
}

// FlowMetrics summarizes the end-to-end (issue → fabric exit) response
// of the flow originating at one station segment.
type FlowMetrics struct {
	Segment        string  `json:"segment"`
	Completed      uint64  `json:"completed"`
	MeanResponse   float64 `json:"mean_response"`
	ResponseStdDev float64 `json:"response_std_dev"`
	MaxResponse    float64 `json:"max_response"`
	// RespHist is a snapshot of the end-to-end response histogram; nil
	// unless Config.Quantiles enabled collection.
	RespHist *sim.Histogram `json:"-"`
}

// Metrics is a point-in-time summary of the whole fabric. Segments
// follows Config.Segments order; Flows holds one entry per segment with
// stations, in the same order.
type Metrics struct {
	Elapsed  float64          `json:"elapsed"`
	Segments []SegmentMetrics `json:"segments"`
	Flows    []FlowMetrics    `json:"flows"`
}

// Elapsed returns the length of the measured interval so far.
func (f *Fabric) Elapsed() float64 { return f.eng.Now() - f.statsStart }

// SegmentSnapshot computes segment k's metrics as of the engine's
// current time without disturbing the collectors — one entry of
// Snapshot's Segments, for callers that read a single segment.
func (f *Fabric) SegmentSnapshot(k int) SegmentMetrics {
	s := &f.segs[k]
	var m SegmentMetrics
	f.snapshotSegment(s, &m, make([]float64, s.nBuses), make([]uint64, len(s.grants)))
	if s.waitHist != nil {
		hs := sim.Snapshots(s.waitHist, s.respHist)
		m.WaitHist, m.RespHist = &hs[0], &hs[1]
	}
	return m
}

// snapshotSegment writes segment s's metrics as of the engine's current
// time into m, every field but the histogram snapshots. perBus and
// grants, one element per bus and per claimant, become its
// BusUtilization and Grants.
func (f *Fabric) snapshotSegment(s *segment, m *SegmentMetrics, perBus []float64, grants []uint64) {
	now := f.eng.Now()
	elapsed := f.Elapsed()
	blocked := s.blockedTW
	blocked.Finish(now)
	qlen := s.qlen
	qlen.Finish(now)
	util := 0.0
	for b := range perBus {
		slot := &s.buses[b]
		busy := slot.busy
		if slot.req.path != nil {
			busy += now - slot.since
		}
		if elapsed > 0 {
			perBus[b] = busy / elapsed
		}
		util += perBus[b]
	}
	copy(grants, s.grants)
	*m = SegmentMetrics{
		Name:           s.name,
		Utilization:    util / float64(s.nBuses),
		Blocked:        blocked.Average(elapsed),
		BusUtilization: perBus,
		MeanQueueLen:   qlen.Average(elapsed),
		MaxQueueLen:    qlen.Max(),
		MeanWait:       s.wait.Mean(),
		WaitStdDev:     s.wait.StdDev(),
		MaxWait:        s.wait.Max(),
		MeanResponse:   s.resp.Mean(),
		Issued:         s.issued,
		Completions:    s.completions,
		Grants:         grants,
	}
	if elapsed > 0 {
		m.Throughput = float64(s.completions) / elapsed
	}
}

// Snapshot computes metrics as of the engine's current time without
// disturbing the collectors, so the simulation can continue afterwards.
// Every segment's per-bus utilizations are carved from one block, their
// grants from another, and, with quantiles on, every segment's and
// flow's histogram snapshots from one sim.Snapshots call.
func (f *Fabric) Snapshot() Metrics {
	var buses, claimants, flows int
	f.snap = f.snap[:0]
	for k := range f.segs {
		s := &f.segs[k]
		buses += s.nBuses
		claimants += len(s.grants)
		if s.stations > 0 {
			flows++
		}
		if s.waitHist != nil {
			f.snap = append(f.snap, s.waitHist, s.respHist)
		}
		if fl := s.flow; fl != nil && fl.respHist != nil {
			f.snap = append(f.snap, fl.respHist)
		}
	}
	perBus := make([]float64, buses)
	grants := make([]uint64, claimants)
	var hists []sim.Histogram
	if len(f.snap) > 0 {
		hists = sim.Snapshots(f.snap...)
	}
	m := Metrics{
		Elapsed:  f.Elapsed(),
		Segments: make([]SegmentMetrics, len(f.segs)),
		Flows:    make([]FlowMetrics, 0, flows),
	}
	for k := range f.segs {
		s := &f.segs[k]
		sm := &m.Segments[k]
		nb, nc := s.nBuses, len(s.grants)
		f.snapshotSegment(s, sm, perBus[:nb:nb], grants[:nc:nc])
		perBus, grants = perBus[nb:], grants[nc:]
		if s.waitHist != nil {
			sm.WaitHist, sm.RespHist = &hists[0], &hists[1]
			hists = hists[2:]
		}
		if s.stations == 0 {
			continue
		}
		// Without a flow of its own, the hop collectors are the flow's.
		flow := FlowMetrics{
			Segment:        s.name,
			Completed:      s.completions,
			MeanResponse:   s.resp.Mean(),
			ResponseStdDev: s.resp.StdDev(),
			MaxResponse:    s.resp.Max(),
			RespHist:       sm.RespHist,
		}
		if fl := s.flow; fl != nil {
			flow.Completed = fl.done
			flow.MeanResponse = fl.resp.Mean()
			flow.ResponseStdDev = fl.resp.StdDev()
			flow.MaxResponse = fl.resp.Max()
			flow.RespHist = nil
			if fl.respHist != nil {
				flow.RespHist = &hists[0]
				hists = hists[1:]
			}
		}
		m.Flows = append(m.Flows, flow)
	}
	return m
}

// Outstanding returns the number of requests station i of segment k has
// in flight anywhere in the fabric: queued at its home interface,
// stalled, crossing any bridge on its route, in service, or blocked.
// Exposed for invariant checks in tests.
func (f *Fabric) Outstanding(k, i int) int {
	home := &f.segs[k]
	c := home.stationQ[i].len()
	if !math.IsNaN(home.stalled[i]) {
		c++
	}
	mine := func(r request) bool { return r.path == home.path && int(r.local) == i }
	for _, slot := range home.buses {
		if mine(slot.req) {
			c++
		}
	}
	for _, l := range home.path.links {
		for _, slot := range l.to.buses {
			if mine(slot.req) {
				c++
			}
		}
		q := l.queue()
		for n := range q.len() {
			if mine(q.at(n)) {
				c++
			}
		}
	}
	return c
}

// Queued returns the number of requests waiting at station i's
// interface on segment k, excluding a stalled one. Exposed for
// invariant checks in tests.
func (f *Fabric) Queued(k, i int) int { return f.segs[k].stationQ[i].len() }

// Busy returns the number of occupied buses of segment k — serving or
// blocked after service. Exposed for invariant checks in tests.
func (f *Fabric) Busy(k int) int { return f.segs[k].busy }
