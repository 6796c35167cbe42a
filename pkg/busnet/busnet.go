// Package busnet is the stable public API for simulating multiplexed
// single-bus multiprocessor networks with and without buffering, after
// the source paper. The package is split into an immutable, validated
// Config value type and a Network runner built from it: one Config can
// fan out to many runs (parameter grids, replications) without sharing
// any mutable state. Configure either with functional options or a
// Config literal, run it, and get typed Results; Predict returns the
// matching closed-form model for cross-checking.
//
//	net, err := busnet.New(
//		busnet.WithProcessors(16),
//		busnet.WithBuffer(4),
//		busnet.WithArbiter(busnet.RoundRobin),
//		busnet.WithSeed(42),
//	)
//	if err != nil { ... }
//	res, err := net.Run()
//
// or, deriving runs from a config value:
//
//	cfg := busnet.DefaultConfig()
//	cfg.Processors = 16
//	cfg.Stream = 3 // replication 3's independent RNG substream
//	net, err := busnet.FromConfig(cfg)
//
// For whole parameter sweeps with replication statistics, see the
// pkg/busnet/sweep subpackage.
package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/analytic"
	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/sim"
)

// Histogram re-exports the fixed-memory streaming latency histogram so
// callers (and the sweep subpackage) can merge per-run distributions
// across replications and query arbitrary quantiles without importing
// internal packages.
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

// Results summarizes one simulation run over the measured interval
// [warmup, horizon]. Waiting time runs from a request's issue to its
// service start (including any stall at a full interface); response time
// additionally includes service. Queue length counts requests waiting at
// the interfaces, excluding those in service. Utilization is the
// time-averaged fraction of busy buses (the plain busy fraction of the
// single bus when Config.Buses is 1); BusUtilization breaks it down per
// bus, skewed toward bus 0 by the lowest-free-bus dispatch.
type Results struct {
	Config         Config    `json:"config"`
	MeasuredTime   float64   `json:"measured_time"`
	Events         uint64    `json:"events"`
	Issued         uint64    `json:"issued"`
	Completions    uint64    `json:"completions"`
	Throughput     float64   `json:"throughput"`
	Utilization    float64   `json:"utilization"`
	BusUtilization []float64 `json:"bus_utilization"`
	MeanQueueLen   float64   `json:"mean_queue_len"`
	MaxQueueLen    float64   `json:"max_queue_len"`
	MeanWait       float64   `json:"mean_wait"`
	WaitStdDev     float64   `json:"wait_std_dev"`
	MaxWait        float64   `json:"max_wait"`
	MeanResponse   float64   `json:"mean_response"`
	// WaitQuantiles and ResponseQuantiles summarize the measured latency
	// distributions (p50/p90/p95/p99); the full streaming histograms they
	// were read from ride along unserialized so sweeps can merge
	// replications and re-query pooled quantiles. All four are nil unless
	// Config.Quantiles (or WithQuantiles) enabled collection — absent
	// from the JSON form rather than rendered as zero latencies.
	WaitQuantiles     *Quantiles `json:"wait_quantiles,omitempty"`
	ResponseQuantiles *Quantiles `json:"response_quantiles,omitempty"`
	WaitHistogram     *Histogram `json:"-"`
	ResponseHistogram *Histogram `json:"-"`
	Grants            []uint64   `json:"grants"`
	// Diagnostics carries the run's deterministic engine and model
	// counters; unlike every field above it covers the whole run from
	// time zero, not the warmup-truncated measured interval.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// Prediction re-exports the analytic package's closed-form quantities so
// callers never import internal packages.
type Prediction = analytic.Prediction

// Network is a configured, runnable single-bus network. Each call to Run
// builds fresh simulation state, so a Network is reusable — including
// concurrently — and every run with the same config is identical.
type Network struct {
	cfg Config
}

// New validates the options and returns a runnable network. Warmup
// defaults to 10% of the horizon unless set explicitly.
func New(opts ...Option) (*Network, error) {
	b := builder{cfg: DefaultConfig()}
	for _, opt := range opts {
		opt(&b)
	}
	switch b.warmup {
	case warmupFraction:
		b.cfg.Warmup = b.warmupFrac * b.cfg.Horizon
	case warmupDefault:
		b.cfg.Warmup = b.cfg.Horizon / 10
	}
	return FromConfig(b.cfg)
}

// MaxSimProcessors bounds the population the discrete-event backend
// will simulate: beyond it, per-station state (queues, stall slots,
// grant counters) plus an event rate proportional to N make a run an
// out-of-memory or multi-hour mistake rather than an experiment.
// FromConfig refuses larger configs and points at the fluid backend,
// whose cost is O(1) in N; FluidPredict and sweep fluid grids have no
// such bound.
const MaxSimProcessors = 10_000_000

// FromConfig validates cfg and returns a runnable network. The config is
// copied in: later mutation of the caller's value cannot affect the
// network. Unlike New, no warmup defaulting happens — the config is
// taken literally (empty Mode/Arbiter strings normalize to the
// defaults).
func FromConfig(cfg Config) (*Network, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return nil, err
	}
	return &Network{cfg: cfg}, nil
}

// resolved is FromConfig's check: the normalized config if it is valid
// and within the discrete-event backend's station bound.
func (c Config) resolved() (Config, error) {
	c = c.normalized()
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	if c.Processors > MaxSimProcessors {
		return Config{}, fmt.Errorf(
			"busnet: %d processors exceeds the discrete-event backend's %d-station bound; use the fluid backend (FluidPredict, sweep Backend %q) for large-N curves",
			c.Processors, MaxSimProcessors, BackendFluid)
	}
	return c, nil
}

// Config returns the resolved configuration.
func (n *Network) Config() Config { return n.cfg }

// Run simulates the network from time 0 to the horizon and returns
// statistics over [warmup, horizon]. It is deterministic: equal
// configuration (including Seed and Stream) yields identical Results.
// Run builds all state afresh, so concurrent Runs on one Network are
// safe.
//
// Deprecated: Run is Evaluate(n.Config(), BackendSim). New code should
// call Evaluate and read Evaluation.Results; Run remains as a
// bit-identical shim.
func (n *Network) Run() (Results, error) {
	ev, err := Evaluate(n.cfg, BackendSim)
	if err != nil {
		return Results{}, err
	}
	return *ev.Results, nil
}

// Predict returns the closed-form steady-state prediction for cfg: the
// exact machine-repairman model in unbuffered mode, M/M/1 for infinite
// buffers, and the M/M/1/K approximation for finite buffers; with
// Buses > 1 the m-server generalizations — finite-source M/M/m//N,
// Erlang-C M/M/m, and M/M/m/K respectively. It errors when the config
// is invalid, when no steady state exists (infinite buffers with
// offered load Nλ/(mμ) ≥ 1), or when the traffic shape is not Poisson —
// the closed forms assume exponential think times, and attaching them
// to bursty or deterministic runs would be a silently wrong overlay.
// (Cross-checks for the other shapes are limiting cases: MMPP2 with
// equal state rates is Poisson; see docs/traffic.md.) A single-bus
// config always dispatches to the original single-server forms, so
// m = 1 predictions are bit-identical to the pre-fabric ones.
//
// Non-exponential service (Config.Service) dispatches to the M/G/1
// Pollaczek–Khinchine form — exact M/D/1 for deterministic service and
// the general P-K formula for Erlang-k and hyperexponential — and only
// in the single-bus buffered-infinite regime; every other combination
// is refused, since no exact closed form exists there. See
// docs/service.md for the formula mapping.
//
// Deprecated: Predict is Evaluate(cfg, BackendAnalytic). New code
// should call Evaluate and read Evaluation.Analytic; Predict remains
// as an identical-output shim.
func Predict(cfg Config) (Prediction, error) {
	ev, err := Evaluate(cfg, BackendAnalytic)
	if err != nil {
		return Prediction{}, err
	}
	return *ev.Analytic, nil
}

// predict is the closed-form backend behind Evaluate (and the Predict
// shim); see Predict's doc for the exact model mapping.
func predict(cfg Config) (Prediction, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return Prediction{}, err
	}
	if kind := cfg.Traffic.Kind; kind != TrafficPoisson {
		return Prediction{}, fmt.Errorf("busnet: no closed-form model for %s traffic", kind)
	}
	mode, _ := parseMode(cfg.Mode)
	multi := cfg.Buses > 1
	if svc := cfg.Service; svc.Kind != ServiceExponential {
		// Non-exponential service breaks the memorylessness every M/M form
		// above relies on. The one closed form available is M/G/1
		// Pollaczek–Khinchine — exact for the single-bus buffered-infinite
		// regime, where arrivals are Poisson at Nλ and nothing blocks.
		// Everything else (blocking, finite buffers, multi-bus M/G/m) has
		// no exact closed form, and attaching an exponential-service model
		// to a deterministic or heavy-tailed run would be a silently wrong
		// overlay — refuse instead.
		if mode != bus.Buffered || cfg.BufferCap != Infinite || multi {
			return Prediction{}, fmt.Errorf(
				"busnet: no closed-form model for %s service outside the single-bus buffered-infinite (M/G/1) regime",
				svc.Kind)
		}
		if svc.Kind == ServiceDeterministic {
			return analytic.MD1BufferedInfinite(cfg.Processors, cfg.ThinkRate, cfg.ServiceRate)
		}
		return analytic.MG1BufferedInfinite(cfg.Processors, cfg.ThinkRate, cfg.ServiceRate, svc.SquaredCV())
	}
	if mode == bus.Unbuffered {
		if multi {
			return analytic.MultiUnbuffered(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate)
		}
		return analytic.Unbuffered(cfg.Processors, cfg.ThinkRate, cfg.ServiceRate), nil
	}
	if cfg.BufferCap == Infinite {
		if multi {
			return analytic.MultiBufferedInfinite(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate)
		}
		return analytic.BufferedInfinite(cfg.Processors, cfg.ThinkRate, cfg.ServiceRate)
	}
	if multi {
		return analytic.MultiBufferedFinite(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate, cfg.BufferCap)
	}
	return analytic.BufferedFinite(cfg.Processors, cfg.ThinkRate, cfg.ServiceRate, cfg.BufferCap)
}

// Predict returns the closed-form prediction for this network's
// configuration; see the package-level Predict.
//
// Deprecated: use Evaluate(n.Config(), BackendAnalytic).
func (n *Network) Predict() (Prediction, error) { return Predict(n.cfg) }
