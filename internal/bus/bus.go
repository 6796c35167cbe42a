// Package bus models a multiplexed bus multiprocessor network in the
// two regimes of the source paper: unbuffered, where a processor blocks
// from the moment it issues a bus request until the fabric has served
// it, and buffered, where requests queue at the processor's bus
// interface (finite or unbounded capacity) and the processor keeps
// computing.
//
// The model is a closed network of N processors around a fabric of
// Buses identical multiplexed buses behind a single arbitration point
// (Buses = 1, the default, is the paper's single shared bus). Each
// processor alternates between thinking (local work, exponential with
// rate ThinkRate) and issuing a bus transaction whose service time is
// exponential with rate ServiceRate on whichever bus serves it. An
// Arbiter picks which processor's interface is granted next; the grant
// goes to the lowest-numbered free bus, and each bus serves
// independently.
package bus

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

// Mode selects the paper's two regimes.
type Mode int

const (
	// Unbuffered blocks the issuing processor until its request completes.
	Unbuffered Mode = iota
	// Buffered queues requests at the bus interface so the processor can
	// continue thinking, up to BufferCap outstanding requests.
	Buffered
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Unbuffered:
		return "unbuffered"
	case Buffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Infinite marks an unbounded per-processor buffer in Buffered mode.
const Infinite = -1

// Config describes one network instance.
type Config struct {
	Processors  int     // N ≥ 1
	ThinkRate   float64 // λ: per-processor request generation rate while thinking
	ServiceRate float64 // μ: per-bus service rate
	Mode        Mode
	BufferCap   int // per-processor queue capacity in Buffered mode; Infinite for unbounded
	Arbiter     Arbiter
	// Buses is the number of identical parallel buses behind the
	// arbitration point, m ≥ 1. Zero means one — the paper's single-bus
	// model and the pre-fabric default.
	Buses int
	// Sources optionally shapes each processor's request generation: one
	// workload.Source per processor, consulted every time the processor
	// re-enters the thinking state. Nil keeps the paper's model — Poisson
	// think times at ThinkRate for every processor — with the exact same
	// draw sequence as before the subsystem existed. When set, ThinkRate
	// is not consulted (the sources own their rates).
	Sources []workload.Source
	// Service optionally shapes the bus service time, sampled once per
	// dispatch on whichever bus serves the request. Nil keeps the paper's
	// model — exponential service at ServiceRate — with the exact same
	// draw sequence as before the subsystem existed. Non-nil dists are
	// expected to have mean 1/ServiceRate (servdist builds them that way)
	// so ServiceRate remains the load knob and the dist only the shape.
	Service servdist.Dist
	// Quantiles enables the per-observation wait/response histograms
	// behind Metrics.WaitHist/RespHist. Off by default: the two
	// Histogram.Add calls sit on the dispatch and completion hot paths,
	// and runs that only consume the scalar summaries shouldn't pay for
	// distributions they never read. Histograms draw nothing from the
	// RNG, so toggling this never changes a run's event trajectory.
	Quantiles bool
}

// buses resolves the configured bus count: 0 means the single-bus
// default.
func (c Config) buses() int {
	if c.Buses == 0 {
		return 1
	}
	return c.Buses
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("bus: Processors = %d, need ≥ 1", c.Processors)
	case c.Buses < 0:
		return fmt.Errorf("bus: Buses = %d, need ≥ 1 (or 0 for the single-bus default)", c.Buses)
	case c.Sources == nil && (!(c.ThinkRate > 0) || math.IsInf(c.ThinkRate, 1)):
		// An infinite rate makes Exp draw 0 forever, freezing the clock.
		return fmt.Errorf("bus: ThinkRate = %v, need finite and > 0", c.ThinkRate)
	case c.Sources != nil && len(c.Sources) != c.Processors:
		return fmt.Errorf("bus: %d sources for %d processors", len(c.Sources), c.Processors)
	case !(c.ServiceRate > 0) || math.IsInf(c.ServiceRate, 1):
		return fmt.Errorf("bus: ServiceRate = %v, need finite and > 0", c.ServiceRate)
	case c.Mode != Unbuffered && c.Mode != Buffered:
		return fmt.Errorf("bus: unknown mode %d", int(c.Mode))
	case c.Mode == Buffered && c.BufferCap != Infinite && c.BufferCap < 1:
		return fmt.Errorf("bus: BufferCap = %d, need ≥ 1 or Infinite", c.BufferCap)
	case c.Arbiter == nil:
		return fmt.Errorf("bus: Arbiter is nil")
	}
	for i, s := range c.Sources {
		if s == nil {
			return fmt.Errorf("bus: Sources[%d] is nil", i)
		}
	}
	// Arbiters carrying per-processor state (e.g. weighted round-robin)
	// expose their size; a mismatch would index out of bounds mid-run.
	if sized, ok := c.Arbiter.(interface{ Stations() int }); ok && sized.Stations() != c.Processors {
		return fmt.Errorf("bus: arbiter %q sized for %d stations, config has %d processors",
			c.Arbiter.Name(), sized.Stations(), c.Processors)
	}
	return nil
}

// Network is the simulated bus-fabric system. It is not safe for
// concurrent use; all mutation happens inside engine callbacks.
type Network struct {
	cfg     Config
	eng     *sim.Engine
	rng     *sim.RNG
	nBuses  int               // resolved cfg.buses()
	sources []workload.Source // per-processor think-time generators
	service servdist.Dist     // bus service-time generator, shared by all buses

	queues  []timeRing // per-processor FIFO of issue times awaiting a bus
	pending []bool     // queues[i] is nonempty
	stalled []float64  // Buffered finite: issue time of the request held at a
	// full interface (processor stalled); NaN when none
	queued     int       // total requests waiting across all interfaces
	busy       int       // buses currently serving
	serving    []int     // per-bus processor whose request it serves; -1 when idle
	servIssued []float64 // per-bus issue time of the request in service
	servStart  []float64 // per-bus dispatch time of the request in service
	completeFn []func()  // per-bus completion callbacks, built once so the
	// dispatch hot path schedules without allocating a closure per grant
	issueFn []func() // per-processor issue callbacks, built once so every
	// think-time event schedules without allocating a closure
	probe  Probe  // nil-by-default observability seam
	stalls uint64 // requests held at a full buffered-finite interface

	statsStart  float64
	util        sim.TimeWeighted   // fraction of busy buses (0/1 when nBuses == 1)
	busUtil     []sim.TimeWeighted // per-bus busy indicator (0/1)
	qlen        sim.TimeWeighted   // total waiting requests, excluding those in service
	wait        sim.Tally          // issue → service start
	resp        sim.Tally          // issue → completion
	waitHist    *sim.Histogram     // wait distribution, merged across replications upstream; nil unless cfg.Quantiles
	respHist    *sim.Histogram     // response distribution; nil unless cfg.Quantiles
	issued      uint64
	completions uint64
	grants      []uint64 // bus grants per processor, for fairness analysis
}

// New builds a network on the given engine and RNG. Start must be called
// to schedule the initial think completions.
func New(cfg Config, eng *sim.Engine, rng *sim.RNG) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		cfg:        cfg,
		eng:        eng,
		rng:        rng,
		nBuses:     cfg.buses(),
		sources:    cfg.Sources,
		queues:     make([]timeRing, cfg.Processors),
		pending:    make([]bool, cfg.Processors),
		stalled:    make([]float64, cfg.Processors),
		grants:     make([]uint64, cfg.Processors),
		serving:    make([]int, cfg.buses()),
		servIssued: make([]float64, cfg.buses()),
		servStart:  make([]float64, cfg.buses()),
		busUtil:    make([]sim.TimeWeighted, cfg.buses()),
	}
	if n.sources == nil {
		// The paper's default: Poisson think times at ThinkRate. Validate
		// guaranteed the rate, so source construction cannot fail. The
		// Poisson source is stateless, so one instance serves every
		// station with the same draw sequence as one instance each.
		src, err := workload.Spec{}.NewSource(cfg.ThinkRate)
		if err != nil {
			return nil, err
		}
		n.sources = make([]workload.Source, cfg.Processors)
		for i := range n.sources {
			n.sources[i] = src
		}
	}
	n.service = cfg.Service
	if n.service == nil {
		// The paper's default: exponential service at ServiceRate, with the
		// exact draw sequence of the pre-servdist engine (one Exp variate
		// per dispatch). Validate guaranteed the rate.
		d, err := servdist.Spec{}.NewDist(cfg.ServiceRate)
		if err != nil {
			return nil, err
		}
		n.service = d
	}
	if cfg.Quantiles {
		n.waitHist = new(sim.Histogram)
		n.respHist = new(sim.Histogram)
	}
	for i := range n.stalled {
		n.stalled[i] = math.NaN()
	}
	n.issueFn = make([]func(), cfg.Processors)
	for i := range n.issueFn {
		n.issueFn[i] = func() { n.issue(i) }
		if cfg.Mode == Buffered && cfg.BufferCap != Infinite {
			// A finite interface never holds more than BufferCap requests;
			// pre-sizing the ring makes the queue path allocation-free.
			n.queues[i].reserve(cfg.BufferCap)
		}
	}
	n.completeFn = make([]func(), n.nBuses)
	for b := range n.serving {
		n.serving[b] = -1
		n.busUtil[b].Set(0, eng.Now())
		n.completeFn[b] = func() { n.complete(b) }
	}
	n.util.Set(0, eng.Now())
	n.qlen.Set(0, eng.Now())
	n.statsStart = eng.Now()
	return n, nil
}

// Start schedules the first think completion for every processor. All
// processors begin in the thinking state.
func (n *Network) Start() {
	for i := 0; i < n.cfg.Processors; i++ {
		n.scheduleThink(i)
	}
}

func (n *Network) scheduleThink(i int) {
	n.eng.Schedule(n.sources[i].Next(n.rng), n.issueFn[i])
}

// issue fires when processor i finishes thinking and presents a request
// to its bus interface.
func (n *Network) issue(i int) {
	now := n.eng.Now()
	n.issued++
	switch n.cfg.Mode {
	case Unbuffered:
		// The processor blocks: no further thinking is scheduled until
		// complete() releases it.
		n.enqueue(i, now)
		n.tryDispatch()
	case Buffered:
		if n.cfg.BufferCap == Infinite || n.queues[i].len() < n.cfg.BufferCap {
			n.enqueue(i, now)
			n.scheduleThink(i)
			n.tryDispatch()
		} else {
			// Interface full: the request is held at the processor, which
			// stalls until the bus drains a slot. The original issue time
			// is kept so its waiting time includes the stall.
			n.stalled[i] = now
			n.stalls++
			if n.probe != nil {
				n.probe.Stall(now, i)
			}
		}
	}
}

func (n *Network) enqueue(i int, issuedAt float64) {
	n.queues[i].push(issuedAt)
	n.pending[i] = true
	n.queued++
	n.qlen.Set(float64(n.queued), n.eng.Now())
}

// freeBus returns the lowest-numbered idle bus. Callers guarantee one
// exists (busy < nBuses). The low-index preference concentrates load on
// bus 0 — visible in the per-bus utilizations — without affecting any
// aggregate: the buses are identical and memoryless.
func (n *Network) freeBus() int {
	for b, p := range n.serving {
		if p < 0 {
			return b
		}
	}
	panic("bus: freeBus called with every bus busy")
}

// tryDispatch grants waiting requests to the arbiter's picks while any
// bus is idle and any interface has a waiting request. With one bus
// this dispatches at most one request per call, exactly the single-bus
// model; with m buses it drains up to m grants back to back at the same
// instant, each onto the lowest-numbered free bus.
func (n *Network) tryDispatch() {
	for n.busy < n.nBuses && n.queued > 0 {
		now := n.eng.Now()
		j := n.cfg.Arbiter.Select(n.pending)
		issuedAt := n.queues[j].pop()
		n.pending[j] = n.queues[j].len() > 0
		n.queued--
		n.qlen.Set(float64(n.queued), now)
		n.grants[j]++
		n.wait.Add(now - issuedAt)
		if n.waitHist != nil {
			n.waitHist.Add(now - issuedAt)
		}

		// Popping freed a slot at interface j; admit a stalled request.
		if !math.IsNaN(n.stalled[j]) {
			n.enqueue(j, n.stalled[j])
			n.stalled[j] = math.NaN()
			n.scheduleThink(j)
		}

		b := n.freeBus()
		n.serving[b] = j
		n.servIssued[b] = issuedAt
		n.servStart[b] = now
		n.busy++
		n.util.Set(float64(n.busy)/float64(n.nBuses), now)
		n.busUtil[b].Set(1, now)
		if n.probe != nil {
			n.probe.Grant(now, j, b, now-issuedAt)
		}
		n.eng.Schedule(n.service.Sample(n.rng), n.completeFn[b])
	}
}

// complete fires when bus b finishes its in-flight transaction.
func (n *Network) complete(b int) {
	now := n.eng.Now()
	n.resp.Add(now - n.servIssued[b])
	if n.respHist != nil {
		n.respHist.Add(now - n.servIssued[b])
	}
	n.completions++
	released := n.serving[b]
	n.serving[b] = -1
	n.busy--
	n.util.Set(float64(n.busy)/float64(n.nBuses), now)
	n.busUtil[b].Set(0, now)
	if n.probe != nil {
		n.probe.Complete(now, released, b, now-n.servStart[b])
	}
	if n.cfg.Mode == Unbuffered {
		// Release the blocked processor back to thinking.
		n.scheduleThink(released)
	}
	n.tryDispatch()
}

// ResetStats discards all accumulated statistics and restarts collection
// at the current simulation time, preserving network state. Used to drop
// the warmup transient.
func (n *Network) ResetStats() {
	now := n.eng.Now()
	n.statsStart = now
	n.wait.Reset()
	n.resp.Reset()
	if n.waitHist != nil {
		n.waitHist.Reset()
	}
	if n.respHist != nil {
		n.respHist.Reset()
	}
	n.issued = 0
	n.completions = 0
	for i := range n.grants {
		n.grants[i] = 0
	}
	// The collectors keep their live values (busy-bus fraction, per-bus
	// indicators, current queue depth) and restart integration at now, so
	// the network state carries across the truncation point while its
	// history is dropped.
	n.util.ResetAt(now)
	for b := range n.busUtil {
		n.busUtil[b].ResetAt(now)
	}
	n.qlen.ResetAt(now)
}

// Metrics is a point-in-time summary of the measured interval
// [statsStart, now]. Utilization is the time-averaged fraction of busy
// buses (the busy indicator of the single bus when Buses == 1);
// BusUtilization breaks it down per bus, so its mean equals
// Utilization and BusUtilization[b]·Elapsed is bus b's busy time.
type Metrics struct {
	Elapsed        float64   `json:"elapsed"`
	Utilization    float64   `json:"utilization"`
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
	// WaitHist and RespHist are snapshot copies of the per-observation
	// latency histograms — the quantile/merging layer above reads them.
	// They are collectors, not summary scalars, so they stay out of the
	// JSON form; both are nil unless Config.Quantiles enabled collection.
	WaitHist *sim.Histogram `json:"-"`
	RespHist *sim.Histogram `json:"-"`
}

// Snapshot computes metrics as of the engine's current time without
// disturbing the collectors, so the simulation can continue afterwards.
func (n *Network) Snapshot() Metrics {
	now := n.eng.Now()
	elapsed := now - n.statsStart
	util := n.util
	util.Finish(now)
	qlen := n.qlen
	qlen.Finish(now)
	perBus := make([]float64, n.nBuses)
	for b := range perBus {
		bu := n.busUtil[b]
		bu.Finish(now)
		perBus[b] = bu.Average(elapsed)
	}
	var waitHist, respHist *sim.Histogram
	if n.waitHist != nil {
		wh := *n.waitHist
		rh := *n.respHist
		waitHist, respHist = &wh, &rh
	}
	m := Metrics{
		Elapsed:        elapsed,
		Utilization:    util.Average(elapsed),
		BusUtilization: perBus,
		MeanQueueLen:   qlen.Average(elapsed),
		MaxQueueLen:    qlen.Max(),
		MeanWait:       n.wait.Mean(),
		WaitStdDev:     n.wait.StdDev(),
		MaxWait:        n.wait.Max(),
		MeanResponse:   n.resp.Mean(),
		Issued:         n.issued,
		Completions:    n.completions,
		Grants:         append([]uint64(nil), n.grants...),
		WaitHist:       waitHist,
		RespHist:       respHist,
	}
	if elapsed > 0 {
		m.Throughput = float64(n.completions) / elapsed
	}
	return m
}

// Outstanding returns the number of requests processor i has in flight:
// waiting at its interface, stalled at a full interface, or in service
// on any bus. Exposed for invariant checks in tests.
func (n *Network) Outstanding(i int) int {
	c := n.queues[i].len()
	if !math.IsNaN(n.stalled[i]) {
		c++
	}
	for _, p := range n.serving {
		if p == i {
			c++
		}
	}
	return c
}

// Busy returns the number of buses currently serving a request.
// Exposed for invariant checks in tests.
func (n *Network) Busy() int { return n.busy }
