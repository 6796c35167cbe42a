package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/opt"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// Workload sizes. Each is chosen so one pass takes 1.3–1.5 s at one
// worker on a 2-CPU Xeon host, short enough for a median over more than
// a dozen passes in a 25 s run. The sweep horizons keep the per-job overhead
// above the engine under 1% of a replication; the optimizer's short
// horizon keeps each DES job at a few hundred events, so the work above
// the engine dominates there.
const (
	paperHorizon  = 45_000
	fabricHorizon = 60_000
	shapesHorizon = 32_000
	optHorizon    = 200
	optSolves     = 200
	replications  = 10
)

// workload is one named set of inputs. setup builds and validates them
// from the seed; shrink divides the sweep horizons and the solve count
// so tests can run every workload in milliseconds.
type workload struct {
	name  string
	setup func(seed int64, shrink int) (*instance, error)
}

// workloads is every workload in the order runs interleave them; the
// reasons each exists are in README.md and BENCHMARK.json.
var workloads = []workload{
	{"paper-long", setupPaperLong},
	{"fabric", setupFabric},
	{"shapes-tails", setupShapesTails},
	{"optimize-short", setupOptimizeShort},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a workload's validated inputs: the calls one pass makes,
// in order.
type instance struct {
	name    string
	workers int
	calls   []call
	// exact turns on the closed-form checks. Setup turns it off at
	// shrunk horizons, where the warmup transient dominates and the
	// steady-state forms do not apply.
	exact bool
	// probeHorizon is where the ladder's model fit runs (it also times
	// each unit at a tenth and a hundredth of it), and units are the
	// configs it probes.
	probeHorizon float64
	units        []unit
}

// call is one top-level call into the program: a flat sweep curve, a
// topology sweep curve, or one optimizer solve.
type call struct {
	name  string
	flat  []busnet.Config
	topo  []busnet.Topology
	prob  *opt.Problem
	reps  int
	exact []bool // per point: checked against its exact closed form
}

// unit is one operating point the ladder probes: a flat config or a
// topology (exactly one set).
type unit struct {
	flat *busnet.Config
	topo *busnet.Topology
}

// ops is the number of operations one pass attempts: one per sweep
// point, one per solve.
func (in *instance) ops() int {
	n := 0
	for _, c := range in.calls {
		if c.prob != nil {
			n++
		} else {
			n += len(c.flat) + len(c.topo)
		}
	}
	return n
}

// pass is what one execution of an instance produced. Spans are zero
// unless the pass was traced.
type pass struct {
	digest   string
	ops      int
	failed   int
	failures []string
	fired    uint64 // every sweep replication's fired events; solves add none
	diag     busnet.Diagnostics
	points   []cost
	calls    []cost
	solves   []solved
	encode   time.Duration
}

// cost is one traced span with the DES jobs it ran and their events.
type cost struct {
	span  time.Duration
	jobs  uint64
	fired uint64
}

// solved is what the ladder and the recount need from one solve.
type solved struct {
	raced     []opt.Evaluated
	desJobs   uint64
	cacheHits uint64
}

func (p *pass) fail(n int, format string, args ...any) {
	p.failed += n
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// run executes every call, then JSON-encodes all results into a sha256
// hasher; the digest is the pass's output fingerprint. A non-nil tick
// runs after every call.
func (in *instance) run(tr *tracer, tick func()) pass {
	p := pass{ops: in.ops()}
	root := tr.begin(in.name, "pass", -1)
	outs := make([]any, len(in.calls))
	for i, c := range in.calls {
		start := tr.now()
		id := tr.begin(c.name, "call", root)
		var cc cost
		switch {
		case c.prob != nil:
			outs[i], cc = in.solve(c, &p)
		case c.topo != nil:
			outs[i], cc = in.sweepTopology(c, tr, id, &p)
		default:
			outs[i], cc = in.sweepFlat(c, tr, id, &p)
		}
		cc.span = tr.now() - start
		tr.end(id, map[string]any{"des_jobs": cc.jobs, "fired": cc.fired})
		p.calls = append(p.calls, cc)
		if tick != nil {
			tick()
		}
	}
	start := tr.now()
	enc := tr.begin("encode", "encode", root)
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(outs); err != nil {
		p.fail(p.ops, "encode: %v", err)
	}
	tr.end(enc, nil)
	p.encode = tr.now() - start
	p.digest = hex.EncodeToString(h.Sum(nil))
	tr.end(root, nil)
	return p
}

// point books one delivered sweep point: its span since the previous
// delivery (deliveries arrive serially, so that is the point's cost),
// its events, and its checks.
func (p *pass) point(tr *tracer, parent int, last *time.Duration, name string, reps int, diag *busnet.Diagnostics, check func() error) cost {
	now := tr.now()
	c := cost{span: now - *last, jobs: uint64(reps)}
	if diag != nil {
		c.fired = diag.Engine.Fired
		p.diag.Accumulate(*diag)
	}
	tr.add(name, "point", parent, *last, now, map[string]any{"fired": c.fired})
	*last = now
	p.points = append(p.points, c)
	p.fired += c.fired
	if c.fired == 0 {
		p.fail(1, "%s: no diagnostics or no events fired", name)
	} else if err := check(); err != nil {
		p.fail(1, "%s: %v", name, err)
	}
	return c
}

func (in *instance) sweepFlat(c call, tr *tracer, id int, p *pass) (any, cost) {
	res := sweep.Result{Replications: c.reps, Points: make([]sweep.PointResult, len(c.flat))}
	var cc cost
	last := tr.now()
	delivered := 0
	err := sweep.RunStream(sweep.Spec{Points: c.flat, Replications: c.reps, Workers: in.workers}, func(d sweep.PointDelivery) {
		res.Points[d.Index] = d.Point
		delivered++
		name := fmt.Sprintf("%s[%d]", c.name, d.Index)
		pc := p.point(tr, id, &last, name, c.reps, d.Point.Diagnostics, func() error {
			if !in.exact || !c.exact[d.Index] {
				return nil
			}
			if d.Point.Analytic == nil {
				return errors.New("no closed form attached")
			}
			return within("mean wait", d.Point.MeanWait, d.Point.Analytic.MeanWait)
		})
		cc.jobs += pc.jobs
		cc.fired += pc.fired
	})
	if err != nil {
		p.fail(len(c.flat)-delivered, "%s: %v", c.name, err)
	}
	return res, cc
}

func (in *instance) sweepTopology(c call, tr *tracer, id int, p *pass) (any, cost) {
	res := sweep.TopologyResult{Replications: c.reps, Points: make([]sweep.TopologyPointResult, len(c.topo))}
	var cc cost
	last := tr.now()
	delivered := 0
	err := sweep.RunTopologyStream(sweep.TopologySpec{Points: c.topo, Replications: c.reps, Workers: in.workers}, func(d sweep.TopologyPointDelivery) {
		res.Points[d.Index] = d.Point
		delivered++
		name := fmt.Sprintf("%s[%d]", c.name, d.Index)
		pc := p.point(tr, id, &last, name, c.reps, d.Point.Diagnostics, func() error {
			if !in.exact || !c.exact[d.Index] {
				return nil
			}
			if d.Point.Analytic == nil {
				return errors.New("no closed form attached")
			}
			return within("end-to-end response", d.Point.EndToEnd, d.Point.Analytic.MeanResponse)
		})
		cc.jobs += pc.jobs
		cc.fired += pc.fired
	})
	if err != nil {
		p.fail(len(c.topo)-delivered, "%s: %v", c.name, err)
	}
	return res, cc
}

// within checks a simulated mean against its exact closed form:
// |sim − exact| ≤ max(3·CI95, 2%·|exact|).
func within(what string, s sweep.Stat, exact float64) error {
	tol := max(3*s.CI95, 0.02*math.Abs(exact))
	if d := math.Abs(s.Mean - exact); !(d <= tol) {
		return fmt.Errorf("%s %.5g misses the exact %.5g by %.3g (tolerance %.3g)", what, s.Mean, exact, d, tol)
	}
	return nil
}

// solve runs one optimizer problem and checks its ledger: the race's
// cache simulates each (candidate, stream) pair once, so the raced
// candidates' replications must sum to the DES jobs, and the ranked
// table must open with a winner.
func (in *instance) solve(c call, p *pass) (any, cost) {
	prob := *c.prob
	prob.Race.Workers = in.workers
	out, err := opt.Solve(prob)
	if err != nil {
		p.fail(1, "%s: %v", c.name, err)
		return nil, cost{}
	}
	var raced []opt.Evaluated
	var reps uint64
	for _, e := range out.Ranked {
		if e.Replications > 0 {
			raced = append(raced, e)
			reps += uint64(e.Replications)
		}
	}
	switch {
	case reps != out.DESJobs:
		p.fail(1, "%s: raced replications sum to %d, DES jobs %d", c.name, reps, out.DESJobs)
	case out.Ranked[0].Status != opt.StatusWinner:
		p.fail(1, "%s: ranked table has no winner row", c.name)
	}
	p.solves = append(p.solves, solved{raced: raced, desJobs: out.DESJobs, cacheHits: out.CacheHits})
	return out, cost{jobs: out.DESJobs}
}

// recount re-runs every raced candidate's streams 0..R−1 through
// sweep.RunStream. The race's cache simulated exactly those jobs once
// each, so the recount's fired events are the solves' own — the
// denominator of optimize-short's ns_per_event — and, traced, its point
// spans are the optimizer's sweep points seen from outside.
func recount(solves []solved, workers int, tr *tracer) pass {
	in := &instance{name: "recount", workers: workers}
	for i, s := range solves {
		for _, e := range s.raced {
			in.calls = append(in.calls, call{
				name: fmt.Sprintf("solve %d %s", i, e.Label()),
				flat: []busnet.Config{e.Config}, reps: e.Replications, exact: []bool{false},
			})
		}
	}
	return in.run(tr, nil)
}

// builder assembles an instance, keeping the first error.
type builder struct {
	in  instance
	err error
}

func (b *builder) flat(name string, g sweep.Grid, exact func(i int) bool) {
	if b.err != nil {
		return
	}
	pts, err := g.Points()
	if err != nil {
		b.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	c := call{name: name, flat: pts, reps: replications, exact: make([]bool, len(pts))}
	for i, cfg := range pts {
		c.exact[i] = exact(i)
		b.in.units = append(b.in.units, unit{flat: &cfg})
	}
	b.in.calls = append(b.in.calls, c)
}

func (b *builder) topo(name string, exact bool, tbs ...*busnet.TopologyBuilder) {
	if b.err != nil {
		return
	}
	c := call{name: name, reps: replications}
	for _, tb := range tbs {
		t, err := tb.Build()
		if err != nil {
			b.err = fmt.Errorf("%s: %w", name, err)
			return
		}
		c.topo = append(c.topo, t)
		c.exact = append(c.exact, exact)
		b.in.units = append(b.in.units, unit{topo: &t})
	}
	b.in.calls = append(b.in.calls, c)
}

func (b *builder) done() (*instance, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &b.in, nil
}

// base is every flat curve's starting point: μ = 1, warmup 10% of h.
func base(seed int64, h float64) busnet.Config {
	cfg := busnet.DefaultConfig().AtHorizon(h)
	cfg.Seed = seed
	cfg.ServiceRate = 1
	return cfg
}

// loads returns per-station think rates giving offered loads 0.1 … 0.9
// at n stations.
func loads(n int) []float64 {
	rates := make([]float64, 9)
	for i := range rates {
		rates[i] = float64(i+1) / 10 / float64(n)
	}
	return rates
}

func all(int) bool { return true }

// setupPaperLong builds the paper's three headline curves at a long
// horizon: the flat engine under Poisson traffic, exponential service
// and round-robin arbitration, with every exact closed form checked.
func setupPaperLong(seed int64, shrink int) (*instance, error) {
	h := paperHorizon / float64(shrink)
	b := builder{in: instance{name: "paper-long", workers: 1, exact: shrink == 1, probeHorizon: h / 10}}
	unbuf := base(seed, h)
	unbuf.Mode = busnet.ModeUnbuffered
	unbuf.ThinkRate = 0.1
	b.flat("unbuffered-vs-n", sweep.Grid{Base: unbuf, Processors: []int{2, 4, 8, 12, 16, 24, 32, 48, 64}}, all)
	loaded := base(seed, h)
	loaded.Mode = busnet.ModeBuffered
	loaded.BufferCap = busnet.Infinite
	loaded.Processors = 16
	b.flat("buffered-vs-load", sweep.Grid{Base: loaded, ThinkRates: loads(16)}, all)
	finite := base(seed, h)
	finite.Mode = busnet.ModeBuffered
	finite.Processors = 16
	finite.ThinkRate = 0.05
	caps := []int{1, 2, 3, 4, 6, 8, 12, 16, busnet.Infinite}
	// Only the unbounded depth has an exact form; the finite ones are the
	// M/M/1/K loss approximation of backpressure.
	b.flat("finite-buffer", sweep.Grid{Base: finite, BufferCaps: caps}, func(i int) bool { return caps[i] == busnet.Infinite })
	return b.done()
}

// setupFabric builds the topology curves: bridged multi-hop fabrics on
// internal/topo, which never touch the flat engine. The three-hop chain
// has unbounded bridges and is an exact open tandem.
func setupFabric(seed int64, shrink int) (*instance, error) {
	h := fabricHorizon / float64(shrink)
	b := builder{in: instance{name: "fabric", workers: 1, exact: shrink == 1, probeHorizon: h / 10}}
	const n, lambda = 16, 0.04
	var depth []*busnet.TopologyBuilder
	for _, d := range []int{1, 2, 4, 8, 16, 32} {
		depth = append(depth, busnet.NewTopology().
			BufferedSourceNode("cpu", n, lambda, 1, busnet.Infinite, "mem").
			TransitNode("mem", 1).
			Bridge("cpu", "mem", d).
			Seed(seed).Horizon(h))
	}
	b.topo("bridge-depth", false, depth...)
	var chain []*busnet.TopologyBuilder
	for _, l := range []float64{0.02, 0.03, 0.04} {
		chain = append(chain, busnet.NewTopology().
			BufferedSourceNode("cpu", n, l, 1, busnet.Infinite, "l2", "mem").
			TransitNode("l2", 0.9).
			TransitNode("mem", 0.8).
			Bridge("cpu", "l2", busnet.Infinite).
			Bridge("l2", "mem", busnet.Infinite).
			Seed(seed).Horizon(h))
	}
	b.topo("three-hop-chain", true, chain...)
	var merge []*busnet.TopologyBuilder
	for _, d := range []int{1, busnet.Infinite} {
		merge = append(merge, busnet.NewTopology().
			BufferedSourceNode("cpuA", n/2, lambda, 1, busnet.Infinite, "backbone", "mem").
			BufferedSourceNode("cpuB", n/2, lambda, 1, busnet.Infinite, "backbone", "mem").
			TransitNode("backbone", 1).
			TransitNode("mem", 1).
			Bridge("cpuA", "backbone", busnet.Infinite).
			Bridge("cpuB", "backbone", busnet.Infinite).
			Bridge("backbone", "mem", d).
			Seed(seed).Horizon(h))
	}
	b.topo("tree-merge", false, merge...)
	return b.done()
}

// setupShapesTails builds the service-shape and bursty-traffic curves:
// the flat layers under deterministic, Erlang and hyperexponential
// service (with latency histograms on) and MMPP2/ON-OFF sources that
// draw several variates per request. Every M/G/1 point is exact
// (Pollaczek–Khinchine), as is the Poisson point of traffic-shapes.
func setupShapesTails(seed int64, shrink int) (*instance, error) {
	h := shapesHorizon / float64(shrink)
	b := builder{in: instance{name: "shapes-tails", workers: 1, exact: shrink == 1, probeHorizon: h / 10}}
	const n = 16
	svc := base(seed, h)
	svc.Mode = busnet.ModeBuffered
	svc.BufferCap = busnet.Infinite
	svc.Processors = n
	svc.ThinkRate = 0.8 / n
	svc.Quantiles = true
	b.flat("service-shapes", sweep.Grid{Base: svc, Services: []busnet.Service{
		busnet.DeterministicService(), busnet.ErlangService(4), busnet.ExponentialService(), busnet.HyperexpService(4),
	}}, all)
	md1 := svc
	md1.Service = busnet.DeterministicService()
	b.flat("md1-vs-load", sweep.Grid{Base: md1, ThinkRates: loads(n)}, all)
	var h2 []busnet.Service
	for _, scv := range []float64{1, 2, 4, 8, 16} {
		h2 = append(h2, busnet.HyperexpService(scv))
	}
	b.flat("hyperexp-scv", sweep.Grid{Base: svc, Services: h2}, all)

	const mean, dwell, burstFrac = 0.0375, 100.0, 0.1 // ρ = 16·0.0375 = 0.6
	bursty := base(seed, h)
	bursty.Mode = busnet.ModeBuffered
	bursty.BufferCap = busnet.Infinite
	bursty.Processors = n
	bursty.ThinkRate = mean
	var mmpp []busnet.Traffic
	for _, r := range []float64{1, 2, 4, 8, 16, 32, 64} {
		mmpp = append(mmpp, busnet.RareBurstMMPP2(mean, r, dwell, burstFrac))
	}
	b.flat("mmpp2-burstiness", sweep.Grid{Base: bursty, Traffics: mmpp}, func(int) bool { return false })
	var onoff []busnet.Traffic
	for _, d := range []float64{0.8, 0.6, 0.4, 0.2, 0.1, 0.05} {
		onoff = append(onoff, busnet.OnOffTraffic(mean/d, d, 2*dwell))
	}
	b.flat("onoff-duty", sweep.Grid{Base: bursty, Traffics: onoff}, func(int) bool { return false })
	shapes := []busnet.Traffic{
		busnet.DeterministicTraffic(), busnet.PoissonTraffic(),
		busnet.RareBurstMMPP2(mean, 16, dwell, burstFrac), busnet.OnOffTraffic(mean/0.2, 0.2, 2*dwell),
	}
	b.flat("traffic-shapes", sweep.Grid{Base: bursty, Traffics: shapes}, func(i int) bool { return i == 1 })
	return b.done()
}

// setupOptimizeShort builds optSolves instances of the CLI's optimize
// problem (N=16, λ=0.05, modes × {1,2} buses × {1,2,4} depths under
// budget 96, max throughput, 10 replications racing up to 40) on
// consecutive seeds at a short horizon, where model setup, cache keys,
// reduction and race bookkeeping weigh as much as the events.
func setupOptimizeShort(seed int64, shrink int) (*instance, error) {
	in := &instance{name: "optimize-short", workers: 1, probeHorizon: 10 * optHorizon}
	for s := range int64(optSolves / shrink) {
		cfg := base(seed+s, optHorizon)
		cfg.Processors = 16
		cfg.ThinkRate = 0.05
		prob := opt.Problem{
			Space:     opt.Space{Base: cfg, Buses: []int{1, 2}, BufferDepths: []int{1, 2, 4}},
			Objective: opt.Objective{Goal: opt.MaxThroughput},
			Budget:    opt.Budget{Total: 96, BufferCost: 1, BusCost: 32},
			Race:      opt.Race{InitialReplications: replications, MaxReplications: 4 * replications, Workers: 1},
		}
		cands, err := prob.Enumerate()
		if err != nil {
			return nil, fmt.Errorf("solve %d: %w", s, err)
		}
		if s == 0 {
			for _, c := range cands {
				if !c.OverBudget {
					in.units = append(in.units, unit{flat: &c.Config})
				}
			}
		}
		in.calls = append(in.calls, call{name: fmt.Sprintf("solve seed %d", seed+s), prob: &prob})
	}
	return in, nil
}
