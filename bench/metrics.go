package main

// metric declares one reported quantity. BENCHMARK.json at the
// repository root lists the same names, units and bounds; a test keeps
// the two in step.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	bound float64
	doc   string // what the value is, written into records
}

// endToEnd are the metrics a user of busnet-sim waits for or pays for,
// measured with tracing off. Each is the median over the timed passes of
// one run; times are scaled to the reference host speed (speed.go).
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, "building and validating the workload's inputs, median of repeated set-ups"},
	{"wall_s", "s", "lower", 0.20, "first call into sweep/opt until the result is JSON-encoded into a sha256 hasher"},
	{"ns_per_event", "ns", "lower", 0.20, "wall_s over the events fired by every replication the pass simulated"},
	{"alloc_mb", "MB", "lower", 0.20, "bytes allocated during one pass"},
}

// perLayer are the traced run's metrics, one group per layer from the
// variate draw up to the scenario. Every time is normalized to ns per
// fired event where the layer runs per event, so the model-level rungs
// add up and the residual shows what the probes do not explain. They are
// raw host times; host.ref_ns_per_step gives the host's speed meanwhile.
var perLayer = []metric{
	{"sim.variate.ns_per_call", "ns", "lower", 0, "one traffic Next or service Sample on the workload's shape mix"},
	{"sim.variate.calls_per_event", "count", "lower", 0, "(issued + grants) / fired"},
	{"sim.variate.ns_per_event", "ns", "lower", 0, "variate cost per fired event"},
	{"sim.sched.ns_per_event", "ns", "lower", 0, "timing-wheel schedule+fire at the workload's pending set"},
	{"sim.sched.pending", "count", "lower", 0, "pending working set: stations + buses"},
	{"sim.engine.pool_hit_ratio", "ratio", "higher", 0, "event-pool hits / scheduled"},
	{"sim.wheel.overflow_per_event", "ratio", "lower", 0, "wheel overflow pushes / fired"},
	{"sim.wheel.rebases_per_mevent", "count", "lower", 0, "wheel rebases per million fired events"},
	{"bus.arb.ns_per_call", "ns", "lower", 0, "one Arbiter.Select at the workload's claimant width and scan length"},
	{"bus.arb.scan_per_grant", "count", "lower", 0, "arbiter scan slots / grants"},
	{"bus.arb.ns_per_event", "ns", "lower", 0, "arbitration cost per fired event"},
	{"sim.stats.ns_per_event", "ns", "lower", 0, "Tally.Add and TimeWeighted.Set cost per fired event"},
	{"sim.hist.ns_per_event", "ns", "lower", 0, "marginal cost of Quantiles on over off, per fired event"},
	{"busnet.model.flat.ns_per_event", "ns", "lower", 0, "slope of Evaluate time against fired events"},
	{"busnet.model.fabric.ns_per_event", "ns", "lower", 0, "slope of EvaluateTopology time against fired events"},
	{"busnet.model.residual_ns_per_event", "ns", "lower", 0, "model slope minus variate, sched, arb, stats and enabled hist"},
	{"busnet.replication.setup_us", "us", "lower", 0, "intercept of the model fit: fixed cost of one replication"},
	{"busnet.fold.topo_over_flat", "ratio", "lower", 0, "one-segment fabric slope over flat slope, median over same-config pairs"},
	{"busnet.fold.topo_over_flat_spread", "ratio", "lower", 0, "interquartile range of that ratio over its median"},
	{"sweep.point.ns_per_event", "ns", "lower", 0, "point span / point fired events"},
	{"sweep.point.overhead_ns_per_event", "ns", "lower", 0, "point ns/event minus the replications' model cost"},
	{"sweep.cache.key_us", "us", "lower", 0, "one cache key (canonical JSON + sha256) of a job config"},
	{"sweep.cache.hit_ratio", "ratio", "higher", 0, "cache hits / (hits + DES jobs)"},
	{"call.span_ms", "ms", "lower", 0, "one top-level call: a sweep curve, or one opt.Solve"},
	{"call.des_jobs", "count", "lower", 0, "DES jobs one call executes"},
	{"call.overhead_frac", "ratio", "lower", 0, "1 - replication cost of the call's jobs / call time"},
	{"scenario.encode_ms", "ms", "lower", 0, "JSON-encoding the pass result into the hasher"},
	{"scenario.residual_ns_per_event", "ns", "lower", 0, "pass time outside every call, per fired event"},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0, "GC CPU time / total CPU time over untraced passes"},
	{"trace.overhead_frac", "ratio", "lower", 0, "traced pass time / untraced pass time - 1"},
	{"host.ref_ns_per_step", "ns", "lower", 0, "the reference kernel's speed during the run; per-layer times are unscaled"},
}
