package main

import (
	"fmt"
	"math"
	"time"

	"github.com/busnet/busnet/bench/internal/record"
	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// A probe runs one layer's operation in batches of n between two clock
// reads, n doubled at the first measurement until a batch lasts
// minBatch, so no probe reads the clock per call. The ladder measures
// every probe once per round for ladderRounds rounds and keeps each
// probe's fastest batch. Interference from the host's other tenants only
// ever adds time and comes in stretches of tens to hundreds of
// milliseconds, while one round takes 0.1–0.7 s, so a probe's batches
// are spread over several such stretches and the fastest comes from the
// least disturbed one.
const (
	minBatch     = time.Millisecond
	ladderRounds = 7
)

type probe struct {
	op   func(n int) // performs n operations
	n    int
	best float64 // fastest ns per operation so far
}

func (p *probe) measure() {
	if p.n == 0 {
		p.best = math.Inf(1)
		for p.n = 1; ; p.n *= 2 {
			start := time.Now()
			p.op(p.n)
			if time.Since(start) >= minBatch {
				break
			}
		}
	}
	start := time.Now()
	p.op(p.n)
	p.best = min(p.best, float64(time.Since(start).Nanoseconds())/float64(p.n))
}

// probes is a ladder's probe set. Operations that can fail record the
// first error in err.
type probes struct {
	list []*probe
	err  error
}

func (ps *probes) add(op func(n int)) *probe {
	p := &probe{op: op}
	ps.list = append(ps.list, p)
	return p
}

// eval adds a probe of one simulator evaluation of u.
func (ps *probes) eval(u unit) *probe {
	return ps.add(func(n int) {
		for range n {
			if _, err := u.eval(); err != nil && ps.err == nil {
				ps.err = err
			}
		}
	})
}

func (ps *probes) run() error {
	for range ladderRounds {
		for _, p := range ps.list {
			p.measure()
		}
	}
	return ps.err
}

// sink keeps probed results observable so the compiler cannot drop the
// calls that produce them.
var sink float64

// at returns the unit with its horizon set to h, warmup keeping its
// share of the run.
func (u unit) at(h float64) unit {
	if u.flat != nil {
		c := u.flat.AtHorizon(h)
		return unit{flat: &c}
	}
	t := *u.topo
	t.Warmup = t.Warmup / t.Horizon * h
	t.Horizon = h
	return unit{topo: &t}
}

// with returns the unit with latency histograms on or off and the given
// warmup.
func (u unit) with(quantiles bool, warmup float64) unit {
	if u.flat != nil {
		c := *u.flat
		c.Quantiles, c.Warmup = quantiles, warmup
		return unit{flat: &c}
	}
	t := *u.topo
	t.Quantiles, t.Warmup = quantiles, warmup
	return unit{topo: &t}
}

func (u unit) quantiles() bool {
	if u.flat != nil {
		return u.flat.Quantiles
	}
	return u.topo.Quantiles
}

func (u unit) warmup() float64 {
	if u.flat != nil {
		return u.flat.Warmup
	}
	return u.topo.Warmup
}

// eval runs the unit once on the simulator.
func (u unit) eval() (*busnet.Diagnostics, error) {
	if u.flat != nil {
		ev, err := busnet.Evaluate(*u.flat, busnet.BackendSim)
		return ev.Diagnostics, err
	}
	ev, err := busnet.EvaluateTopology(*u.topo, busnet.BackendSim)
	return ev.Diagnostics, err
}

func (u unit) fired() (uint64, error) {
	d, err := u.eval()
	if err != nil {
		return 0, err
	}
	return d.Engine.Fired, nil
}

// fit is a unit's cost model, time = intercept + slope·fired: slope is
// ns per fired event between horizons H and H/10, and intercept, the
// fixed ns of one replication, is read at H/100, where it weighs most.
type fit struct {
	hi, lo, tiny *probe
	fh, fl, ft   uint64
	slope, icept float64
}

func (ps *probes) fit(u unit, h float64) (*fit, error) {
	f := &fit{}
	var err error
	if f.fh, err = u.at(h).fired(); err != nil {
		return nil, err
	}
	if f.fl, err = u.at(h / 10).fired(); err != nil {
		return nil, err
	}
	if f.ft, err = u.at(h / 100).fired(); err != nil {
		return nil, err
	}
	if f.fh <= f.fl {
		return nil, fmt.Errorf("fit: %d events at H, %d at H/10", f.fh, f.fl)
	}
	f.hi, f.lo, f.tiny = ps.eval(u.at(h)), ps.eval(u.at(h/10)), ps.eval(u.at(h/100))
	return f, nil
}

// solve computes slope and intercept from the probes' fastest times.
func (f *fit) solve() {
	f.slope = (f.hi.best - f.lo.best) / float64(f.fh-f.fl)
	f.icept = f.tiny.best - f.slope*float64(f.ft)
}

// weighted is the event-weighted mean slope of fits.
func weighted(fits []*fit) float64 {
	var ns, ev float64
	for _, f := range fits {
		ns += f.slope * float64(f.fh)
		ev += float64(f.fh)
	}
	return ns / ev
}

// draw is one variate call site of a unit: a traffic Next or service
// Sample, and how often the unit called it.
type draw struct {
	next  func(*sim.RNG) float64
	calls float64
}

// counts is what one run of a unit, without warmup so every counter
// covers the same interval, did per layer.
type counts struct {
	fired, issued, grants, completions float64
	exits, crossings, blocks, scans    float64
	// width is the grant-weighted number of claimant slots an arbiter
	// scans: stations plus inbound bridges.
	width float64
	draws []draw
	// pending holds one delay source per member of the pending event
	// set: every station's think time and every bus's service time.
	pending []func(*sim.RNG) float64
}

func countUnit(u unit) (counts, error) {
	u = u.with(u.quantiles(), 0)
	if u.flat != nil {
		c := u.flat.Normalized()
		ev, err := busnet.Evaluate(c, busnet.BackendSim)
		if err != nil {
			return counts{}, err
		}
		k := counts{
			fired: float64(ev.Diagnostics.Engine.Fired), issued: float64(ev.Results.Issued),
			grants: sum(ev.Results.Grants), completions: float64(ev.Results.Completions),
			scans: float64(ev.Diagnostics.ArbScanSlots), width: float64(c.Processors),
		}
		err = k.node(c.Traffic, c.ThinkRate, c.Processors, c.Service, c.ServiceRate, c.Buses, k.issued, k.grants)
		return k, err
	}
	t := u.topo.Normalized()
	ev, err := busnet.EvaluateTopology(t, busnet.BackendSim)
	if err != nil {
		return counts{}, err
	}
	d := ev.Diagnostics
	k := counts{
		fired: float64(d.Engine.Fired), scans: float64(d.ArbScanSlots),
		crossings: float64(d.BridgeCrossings), blocks: float64(d.BridgeBlocks),
	}
	for i, n := range t.Nodes {
		hop := ev.Results.Hops[i]
		g := sum(hop.Grants)
		k.issued += float64(hop.Issued)
		k.grants += g
		k.completions += float64(hop.Completions)
		k.width += float64(len(hop.Grants)) * g
		if err := k.node(n.Traffic, n.ThinkRate, n.Processors, n.Service, n.ServiceRate, n.Buses, float64(hop.Issued), g); err != nil {
			return counts{}, err
		}
	}
	k.width /= k.grants
	for _, f := range ev.Results.Flows {
		k.exits += float64(f.Completed)
	}
	return k, nil
}

// node adds one arbitration point's variate sites and pending-set
// members: stations stations thinking per traffic, buses buses serving
// per service.
func (k *counts) node(traffic busnet.Traffic, lambda float64, stations int, service busnet.Service, mu float64, buses int, issued, grants float64) error {
	dist, err := service.NewDist(mu)
	if err != nil {
		return err
	}
	k.draws = append(k.draws, draw{dist.Sample, grants})
	for range buses {
		k.pending = append(k.pending, dist.Sample)
	}
	for i := range stations {
		src, err := traffic.NewSource(lambda)
		if err != nil {
			return err
		}
		if i == 0 {
			k.draws = append(k.draws, draw{src.Next, issued})
		}
		k.pending = append(k.pending, src.Next)
	}
	return nil
}

func sum(xs []uint64) float64 {
	var s uint64
	for _, x := range xs {
		s += x
	}
	return float64(s)
}

// Statistics-update multiplicities, read off internal/bus and
// internal/topo. Tally.Add: one wait per grant, one response per
// completed visit, one end-to-end response per fabric exit.
// TimeWeighted.Set: one queue-length update per enqueue (every issued
// request and every bridge crossing), three per grant (queue length,
// busy fraction, the bus's busy flag), two per completed visit (busy
// fraction, busy flag), and two per blocking-after-service episode
// (blocked fraction at block and at release).
func (k counts) tallies() float64 { return k.grants + k.completions + k.exits }
func (k counts) timeWeighted() float64 {
	return k.issued + k.crossings + 3*k.grants + 2*k.completions + 2*k.blocks
}

// variate adds one probe per draw site, each on its own RNG stream.
func (ps *probes) variate(k counts, seed int64) []*probe {
	var out []*probe
	for _, d := range k.draws {
		next := d.next
		rng := sim.NewRNGStream(seed, 1)
		out = append(out, ps.add(func(n int) {
			var s float64
			for range n {
				s += next(rng)
			}
			sink += s
		}))
	}
	return out
}

// sched adds a probe of an engine whose pending set is one
// self-rescheduling callback per member of k.pending, each cycling
// through delays pre-drawn from its own source; its operation is one
// fired event.
func (ps *probes) sched(k counts, seed int64) *probe {
	const ring = 256
	rng := sim.NewRNGStream(seed, 2)
	eng := sim.NewEngine()
	left := 0
	for _, next := range k.pending {
		delays := make([]float64, ring)
		for i := range delays {
			delays[i] = next(rng)
		}
		i := 0
		var fn func()
		fn = func() {
			eng.Schedule(delays[i], fn)
			i = (i + 1) % ring
			left--
			if left == 0 {
				eng.Stop()
			}
		}
		eng.Schedule(delays[ring-1], fn)
	}
	return ps.add(func(n int) {
		left = n
		_ = eng.Run() // always ErrStopped: the callbacks never drain the set
	})
}

// arb adds a probe of Select on a round-robin arbiter (every workload
// arbitrates round-robin) over a claimant vector of k.width slots whose
// evenly spaced pending requests make the mean scan length match the
// unit's measured scan slots per grant.
func (ps *probes) arb(k counts) *probe {
	n := max(1, int(math.Round(k.width)))
	pendingN := min(n, max(1, int(math.Round(float64(n)*k.grants/k.scans))))
	pending := make([]bool, n)
	for i := range pendingN {
		pending[i*n/pendingN] = true
	}
	a := bus.NewRoundRobin()
	return ps.add(func(m int) {
		s := 0
		for range m {
			s += a.Select(pending)
		}
		sink += float64(s)
	})
}

// stats adds probes of Tally.Add and TimeWeighted.Set.
func (ps *probes) stats(seed int64) (tally, tw *probe) {
	rng := sim.NewRNGStream(seed, 3)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Exp(1)
	}
	var t sim.Tally
	tally = ps.add(func(n int) {
		for i := range n {
			t.Add(xs[i&1023])
		}
		sink += t.Mean()
	})
	var w sim.TimeWeighted
	now := 0.0
	tw = ps.add(func(n int) {
		for i := range n {
			now += xs[i&1023]
			w.Set(float64(i&15), now)
		}
		sink += w.Value()
	})
	return tally, tw
}

// key adds a probe of one cache key of the units' job configs:
// sweep.KeyFor for flat configs, and for topologies, which the cache
// does not take, the same canonical hash it would use.
func (ps *probes) key(units []unit) *probe {
	return ps.add(func(n int) {
		for i := range n {
			u := units[i%len(units)]
			var err error
			if u.flat != nil {
				c := *u.flat
				c.Stream = uint64(i % replications)
				_, err = sweep.KeyFor(c)
			} else {
				t := *u.topo
				t.Seed, t.Stream = 0, 0
				_, err = busnet.CanonicalHash(t)
			}
			if err != nil && ps.err == nil {
				ps.err = err
			}
		}
	})
}

// foldPairs returns the flat configs the fold probe compares with their
// one-segment fabric lift: the flat units themselves, or, for
// topologies, each distinct processor-bearing node run as a flat config.
func foldPairs(units []unit) []busnet.Config {
	var out []busnet.Config
	seen := map[busnet.Config]bool{}
	for _, u := range units {
		if u.flat != nil {
			out = append(out, *u.flat)
			continue
		}
		for _, n := range u.topo.Nodes {
			c := busnet.Config{
				Processors: n.Processors, Buses: n.Buses, ThinkRate: n.ThinkRate, ServiceRate: n.ServiceRate,
				Service: n.Service, Mode: n.Mode, BufferCap: n.BufferCap, Arbiter: n.Arbiter, Weights: n.Weights,
				Traffic: n.Traffic, Seed: u.topo.Seed, Horizon: u.topo.Horizon, Warmup: u.topo.Warmup,
				Quantiles: u.topo.Quantiles,
			}
			if n.Processors > 0 && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// ladder is the per-layer result of one instance: model fits, the
// flat-versus-fabric fold, and the micro-probes below the model, every
// time per fired event of the workload's own units.
type ladder struct {
	v        map[string]float64
	own      float64 // ns per event of the workload's own engine
	setupNS  float64 // ns per replication
	ops      int
	failures []string
}

// unitProbes are one unit's probes below the model and its counts.
type unitProbes struct {
	k               counts
	variate         []*probe
	sched, arb      *probe
	histOn, histOff *probe
	quantiles       bool
}

func runLadder(in *instance, seed int64) (ladder, error) {
	l := ladder{v: map[string]float64{}}
	h := in.probeHorizon
	var ps probes

	own := make([]*fit, len(in.units))
	units := make([]unitProbes, len(in.units))
	for i, u := range in.units {
		f, err := ps.fit(u, h)
		if err != nil {
			return l, fmt.Errorf("model fit: %w", err)
		}
		own[i] = f
		k, err := countUnit(u.at(h))
		if err != nil {
			return l, fmt.Errorf("counts: %w", err)
		}
		at := u.at(h)
		units[i] = unitProbes{
			k: k, variate: ps.variate(k, seed), sched: ps.sched(k, seed), arb: ps.arb(k),
			histOn: ps.eval(at.with(true, at.warmup())), histOff: ps.eval(at.with(false, at.warmup())),
			quantiles: u.quantiles(),
		}
	}
	var flatFits, topoFits []*fit
	for i, c := range foldPairs(in.units) {
		ff := own[i]
		if in.units[0].topo != nil {
			var err error
			if ff, err = ps.fit(unit{flat: &c}, h); err != nil {
				return l, fmt.Errorf("fold fit: %w", err)
			}
		}
		t := c.Topology()
		tf, err := ps.fit(unit{topo: &t}, h)
		if err != nil {
			return l, fmt.Errorf("fold fit: %w", err)
		}
		l.ops++
		if ff.fh != tf.fh || ff.fl != tf.fl || ff.ft != tf.ft {
			l.failures = append(l.failures, fmt.Sprintf("fold: flat fired %d/%d/%d, one-segment fabric %d/%d/%d",
				ff.fh, ff.fl, ff.ft, tf.fh, tf.fl, tf.ft))
		}
		flatFits = append(flatFits, ff)
		topoFits = append(topoFits, tf)
	}
	tally, tw := ps.stats(seed)
	key := ps.key(in.units)

	if err := ps.run(); err != nil {
		return l, err
	}

	for _, f := range append(append(own, flatFits...), topoFits...) {
		f.solve()
	}
	var icepts float64
	for _, f := range own {
		icepts += f.icept
	}
	l.own = weighted(own)
	l.setupNS = icepts / float64(len(own))
	l.v["busnet.replication.setup_us"] = l.setupNS / 1e3
	l.v["busnet.model.flat.ns_per_event"] = weighted(flatFits)
	l.v["busnet.model.fabric.ns_per_event"] = weighted(topoFits)
	if in.units[0].topo != nil {
		l.v["busnet.model.fabric.ns_per_event"] = l.own
	}
	var ratios []float64
	for i := range flatFits {
		ratios = append(ratios, topoFits[i].slope/flatFits[i].slope)
	}
	q := record.Summarize(ratios)
	l.v["busnet.fold.topo_over_flat"] = q.Median
	l.v["busnet.fold.topo_over_flat_spread"] = q.IQR / q.Median

	var fired, varNS, varCalls, schedNS, pending, arbNS, scans, grants, statNS, histNS, histOn float64
	for i, up := range units {
		k := up.k
		for j, p := range up.variate {
			varNS += p.best * k.draws[j].calls
			varCalls += k.draws[j].calls
		}
		schedNS += up.sched.best * k.fired
		pending += float64(len(k.pending)) * k.fired
		arbNS += up.arb.best * k.grants
		scans += k.scans
		grants += k.grants
		statNS += tally.best*k.tallies() + tw.best*k.timeWeighted()
		// The histograms' marginal cost per event, scaled to this
		// unit's counting run so every rung shares one denominator.
		hist := (up.histOn.best - up.histOff.best) / float64(own[i].fh) * k.fired
		histNS += hist
		if up.quantiles {
			histOn += hist
		}
		fired += k.fired
	}
	l.v["sim.variate.ns_per_call"] = varNS / varCalls
	l.v["sim.variate.calls_per_event"] = varCalls / fired
	l.v["sim.variate.ns_per_event"] = varNS / fired
	l.v["sim.sched.ns_per_event"] = schedNS / fired
	l.v["sim.sched.pending"] = pending / fired
	l.v["bus.arb.ns_per_call"] = arbNS / grants
	l.v["bus.arb.scan_per_grant"] = scans / grants
	l.v["bus.arb.ns_per_event"] = arbNS / fired
	l.v["sim.stats.ns_per_event"] = statNS / fired
	l.v["sim.hist.ns_per_event"] = histNS / fired
	l.v["busnet.model.residual_ns_per_event"] = l.own - (varNS+schedNS+arbNS+statNS+histOn)/fired
	l.v["sweep.cache.key_us"] = key.best / 1e3
	return l, nil
}
