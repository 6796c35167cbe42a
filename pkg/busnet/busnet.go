// Package busnet is the stable public API for simulating multiplexed
// single-bus multiprocessor networks with and without buffering, after
// the source paper. An operating point is a plain value: a flat Config
// (DefaultConfig, AtHorizon, field assignment) or a multi-hop Topology
// (a literal, JSON, or NewTopology's builder). Neither runs anything or
// holds simulation state, so one value fans out to parameter grids and
// replications by copy-and-tweak. Evaluate answers for any backend —
// the discrete-event simulator, the closed forms, or the mean-field
// fluid model — with the same summary fields, so simulation and
// prediction compare side by side; EvaluateTopology does the same for
// the simulator and the product-form overlay (see ExampleEvaluate and
// ExampleEvaluateTopology):
//
//	cfg := busnet.DefaultConfig()
//	cfg.Processors = 16
//	cfg.Stream = 3 // replication 3's independent RNG substream
//	sim, err := busnet.Evaluate(cfg, busnet.BackendSim)
//	if err != nil { ... }
//	exact, err := busnet.Evaluate(cfg, busnet.BackendAnalytic)
//
// For whole parameter sweeps with replication statistics, see the
// pkg/busnet/sweep subpackage.
package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/analytic"
	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/topo"
)

// Histogram re-exports the streaming latency histogram so callers (and
// the sweep subpackage) can merge per-run distributions across
// replications and query arbitrary quantiles without importing internal
// packages. A value copy shares the original's buckets; Merge into an
// empty Histogram makes one of your own.
type Histogram = sim.Histogram

// Quantiles summarizes one latency distribution at the tail percentiles
// production dashboards care about. Values come from the run's streaming
// log-bucketed histogram: each is the bucket-midpoint estimate of the
// sample quantile, accurate to ~3% relative error (see Histogram).
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// QuantilesFrom reads the standard percentile set off a histogram — the
// reduction used for Results and, after merging replications, for sweep
// points. A nil histogram (collection disabled — see Config.Quantiles)
// yields nil, so "not measured" stays distinguishable from a measured
// all-zero distribution, mirroring the ci_undefined convention.
func QuantilesFrom(h *Histogram) *Quantiles {
	if h == nil {
		return nil
	}
	return &Quantiles{
		P50: h.Quantile(0.50),
		P90: h.Quantile(0.90),
		P95: h.Quantile(0.95),
		P99: h.Quantile(0.99),
	}
}

// Results summarizes one simulation run of a flat config: the one
// segment's HopResult over the measured interval [warmup, horizon],
// named "bus", plus the run's own fields. Waiting time runs from a
// request's issue to its service start (including any stall at a full
// interface); response time additionally includes service. Queue
// length counts requests waiting at the interfaces, excluding those in
// service. Utilization is the time-averaged fraction of busy buses (the
// plain busy fraction of the single bus when Config.Buses is 1);
// BusUtilization breaks it down per bus, skewed toward bus 0 by the
// lowest-free-bus dispatch, and Utilization is exactly its mean.
// Blocked is always zero: a flat run has no bridge to block on. The
// config is not echoed: the caller has it, and Config.Normalized gives
// its canonical spelling.
type Results struct {
	MeasuredTime float64 `json:"measured_time"`
	Events       uint64  `json:"events"`
	HopResult
	// WaitQuantiles and ResponseQuantiles summarize the measured latency
	// distributions (p50/p90/p95/p99) read off the hop's WaitHist and
	// RespHist, which ride along unserialized so sweeps can merge
	// replications and re-query pooled quantiles. All four are nil unless
	// Config.Quantiles enabled collection — absent from the JSON form
	// rather than rendered as zero latencies. The histograms are
	// read-only snapshots that keep only the buckets their observations
	// span, both carved from one backing array. A value copy of a
	// Histogram shares its buckets, so merge them into an empty Histogram
	// of your own rather than adding to them or to a copy.
	WaitQuantiles     *Quantiles `json:"wait_quantiles,omitempty"`
	ResponseQuantiles *Quantiles `json:"response_quantiles,omitempty"`
	// Diagnostics carries the run's deterministic engine and model
	// counters; unlike every field above it covers the whole run from
	// time zero, not the warmup-truncated measured interval.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// Prediction re-exports the analytic package's closed-form quantities so
// callers never import internal packages.
type Prediction = analytic.Prediction

// MaxSimProcessors bounds the population the discrete-event backend
// will simulate: beyond it, per-station state (queues, stall slots,
// grant counters) plus an event rate proportional to N make a run an
// out-of-memory or multi-hour mistake rather than an experiment.
// Evaluate refuses larger configs on BackendSim and points at the fluid
// backend, whose cost is O(1) in N; BackendFluid and sweep fluid grids
// have no such bound.
const MaxSimProcessors = 10_000_000

// predict is the closed-form backend behind Evaluate, read off the
// config's lowered segment sc: the exact machine-repairman model in
// unbuffered mode, M/M/1 for infinite buffers, and the M/M/1/K
// approximation for finite buffers; with Buses > 1 the m-server
// generalizations — finite-source M/M/m//N, Erlang-C M/M/m, and M/M/m/K
// respectively. It errors when no steady state exists (infinite buffers
// with offered load Nλ/(mμ) ≥ 1), or when the traffic shape is not
// Poisson — the closed forms assume exponential think times, and
// attaching them to bursty or deterministic runs would be a silently
// wrong overlay. (Cross-checks for the other shapes are limiting cases:
// MMPP2 with equal state rates is Poisson; see docs/traffic.md.) The
// blocking and finite-buffer forms are the m-server ones at every m,
// m = 1 included: they read the wait off the waiting mass, so
// predictions keep full relative precision down to vanishing load.
//
// Non-exponential service (Config.Service) dispatches to the M/G/1
// Pollaczek–Khinchine form — exact M/D/1 for deterministic service and
// the general P-K formula for Erlang-k and hyperexponential — and only
// in the single-bus buffered-infinite regime; every other combination
// is refused, since no exact closed form exists there. See
// docs/service.md for the formula mapping.
func predict(sc *topo.SegmentConfig) (Prediction, error) {
	if kind := sc.Traffic.Kind; kind != TrafficPoisson {
		return Prediction{}, fmt.Errorf("busnet: no closed-form model for %s traffic", kind)
	}
	n, m, lambda, mu := sc.Stations, sc.Buses, sc.ThinkRate, sc.ServiceRate
	if svc := sc.Service; svc.Kind != ServiceExponential {
		// Non-exponential service breaks the memorylessness every M/M form
		// above relies on. The one closed form available is M/G/1
		// Pollaczek–Khinchine — exact for the single-bus buffered-infinite
		// regime, where arrivals are Poisson at Nλ and nothing blocks.
		// Everything else (blocking, finite buffers, multi-bus M/G/m) has
		// no exact closed form, and attaching an exponential-service model
		// to a deterministic or heavy-tailed run would be a silently wrong
		// overlay — refuse instead.
		if sc.Mode != bus.Buffered || sc.BufferCap != Infinite || m > 1 {
			return Prediction{}, fmt.Errorf(
				"busnet: no closed-form model for %s service outside the single-bus buffered-infinite (M/G/1) regime",
				svc.Kind)
		}
		if svc.Kind == ServiceDeterministic {
			return analytic.MD1BufferedInfinite(n, lambda, mu)
		}
		return analytic.MG1BufferedInfinite(n, lambda, mu, svc.SquaredCV())
	}
	if sc.Mode == bus.Unbuffered {
		return analytic.MultiUnbuffered(n, m, lambda, mu)
	}
	if sc.BufferCap != Infinite {
		return analytic.MultiBufferedFinite(n, m, lambda, mu, sc.BufferCap)
	}
	if m > 1 {
		return analytic.MultiBufferedInfinite(n, m, lambda, mu)
	}
	return analytic.BufferedInfinite(n, lambda, mu)
}
