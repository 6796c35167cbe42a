package busnet

import (
	"fmt"
	"sync"

	"github.com/busnet/busnet/internal/obs"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/topo"
)

// Evaluation is the backend-independent answer to "what does this
// operating point look like?". The five summary fields are populated
// for every backend, so sweep code and CLIs can compare backends
// without switching on payload shape; exactly one of the payload
// pointers is non-nil and carries the backend's full detail.
type Evaluation struct {
	// Backend is the resolved backend that produced this evaluation
	// (never empty: the zero Backend resolves to BackendSim).
	Backend Backend `json:"backend"`

	// The shared steady-state summary, identical in meaning across
	// backends: time-averaged busy-bus fraction, completed requests per
	// unit time, mean wait (issue to service start), mean response
	// (issue to completion), and mean number waiting (excluding
	// in-service).
	Utilization  float64 `json:"utilization"`
	Throughput   float64 `json:"throughput"`
	MeanWait     float64 `json:"mean_wait"`
	MeanResponse float64 `json:"mean_response"`
	MeanQueueLen float64 `json:"mean_queue_len"`

	// Results is the full simulation payload (BackendSim only).
	Results *Results `json:"results,omitempty"`
	// Analytic is the closed-form payload (BackendAnalytic only).
	Analytic *Prediction `json:"analytic,omitempty"`
	// Fluid is the mean-field payload (BackendFluid only).
	Fluid *FluidPrediction `json:"fluid,omitempty"`
	// Diagnostics is the run's deterministic engine/model counter block
	// (BackendSim only — closed-form backends fire no events). It covers
	// the whole run from time zero, not the warmup-truncated interval.
	Diagnostics *Diagnostics `json:"diagnostics,omitempty"`
}

// Evaluate is the single entry point for evaluating a flat (one-bus-
// segment) configuration with any backend. The backend argument accepts
// the zero value ("" resolves to BackendSim, matching ParseBackend) so
// callers can thread a Backend straight from JSON or flags.
//
// Backend domains differ. The simulator accepts any valid Config up to
// MaxSimProcessors stations. The analytic backend maps the config onto
// its closed form — the machine-repairman model (finite-source
// M/M/m//N) when unbuffered, Erlang-C M/M/m for infinite buffers, the
// M/M/m/K approximation for finite ones, and M/G/1 Pollaczek–Khinchine
// for non-exponential service on a single buffered-infinite bus — and
// refuses non-Poisson traffic, unstable infinite buffers and every
// other non-exponential-service regime. The fluid backend is the
// mean-field limit, O(1) in Processors and asymptotically exact as
// N → ∞; it refuses what its symmetric balance cannot represent:
// non-Poisson traffic, non-exponential service, the fixed-priority
// arbiter, non-uniform weights, and infinite buffers. See docs/fluid.md
// and docs/service.md.
func Evaluate(cfg Config, backend Backend) (Evaluation, error) {
	return EvaluateTraced(cfg, backend, nil)
}

// evaluate runs cfg on the resolved backend b. It lowers cfg once: the
// simulator into its pooled replication's config (simulate), the
// closed forms into a one-segment fabric on the stack. The simulator's
// Results are read off segment 0's snapshot; deterministic in (Config,
// Seed, Stream), every field covers the measured interval only, except
// Diagnostics, which covers the whole run. A non-nil rec, which callers
// pass only with BackendSim, is attached to the simulation's probe
// seams.
func evaluate(cfg Config, b Backend, rec *obs.Recorder) (Evaluation, error) {
	if b == BackendSim {
		run, err := simulate(cfg.lowered, cfg.Seed, cfg.Stream, cfg.Warmup, cfg.Horizon, rec)
		if err != nil {
			return Evaluation{}, err
		}
		defer run.release()
		m := run.fabric.SegmentSnapshot(0)
		res := Results{
			MeasuredTime:      run.fabric.Elapsed(),
			Events:            run.events,
			HopResult:         m,
			WaitQuantiles:     QuantilesFrom(m.WaitHist),
			ResponseQuantiles: QuantilesFrom(m.RespHist),
			Diagnostics:       run.diag,
		}
		return Evaluation{
			Backend:      b,
			Utilization:  res.Utilization,
			Throughput:   res.Throughput,
			MeanWait:     res.MeanWait,
			MeanResponse: res.MeanResponse,
			MeanQueueLen: res.MeanQueueLen,
			Results:      &res,
			Diagnostics:  res.Diagnostics,
		}, nil
	}
	var seg [1]topo.SegmentConfig
	if err := cfg.lowered(&topo.Config{Segments: seg[:]}); err != nil {
		return Evaluation{}, err
	}
	if b == BackendAnalytic {
		p, err := predict(&seg[0])
		if err != nil {
			return Evaluation{}, err
		}
		return Evaluation{
			Backend:      b,
			Utilization:  p.Utilization,
			Throughput:   p.Throughput,
			MeanWait:     p.MeanWait,
			MeanResponse: p.MeanResponse,
			MeanQueueLen: p.MeanQueueLen,
			Analytic:     &p,
		}, nil
	}
	p, err := fluidPredict(&seg[0], cfg.Weights)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{
		Backend:      b,
		Utilization:  p.Utilization,
		Throughput:   p.Throughput,
		MeanWait:     p.MeanWait,
		MeanResponse: p.MeanResponse,
		MeanQueueLen: p.MeanQueueLen,
		Fluid:        &p,
	}, nil
}

// simRun is one finished simulation: the fabric at the horizon, the
// events fired after warmup, and the whole run's counters. The fabric
// lives on pooled memory: read it, then call release, and keep nothing
// that points into it. Snapshots and the counters are copies.
type simRun struct {
	fabric *topo.Fabric
	events uint64
	diag   *Diagnostics
	rep    *replication
}

// replication is the memory one simulation runs on: an engine, an RNG,
// a fabric, and the fabric config a flat config or a topology lowers
// into, recycled through replications so that a worker running job
// after job reuses the previous job's event objects, wheel buckets,
// fabric arrays and run state, and its lowered segments, links, routes
// and weight vectors, instead of allocating and collecting them per
// job.
type replication struct {
	eng *sim.Engine
	rng *sim.RNG
	fab topo.Fabric
	cfg topo.Config
}

// replications pools replication memory across every BackendSim
// evaluation in the process — CLI scenarios, sweep workers, optimizer
// races and direct Evaluate calls alike. Each Get hands one goroutine
// exclusive use until release puts it back.
var replications = sync.Pool{New: func() any {
	return &replication{eng: sim.NewEngine(), rng: sim.NewRNGStream(0, 0)}
}}

// release returns the run's memory to the pool. The engine is Reset
// and the fabric's probe detached first, so no recorder is kept alive
// or written to once its traced run has returned.
func (r simRun) release() {
	r.rep.eng.Reset()
	r.rep.fab.SetProbe(nil)
	replications.Put(r.rep)
}

// simulate is the one discrete-event runner behind every BackendSim
// evaluation, flat or topology: it takes a replication from the pool,
// has lower — Config.lowered or Topology.lowered, which checks what it
// lowers — write the fabric config into the replication's own, and
// runs it from fresh logical state — an engine at time zero, the RNG
// substream (seed, stream), the fabric the config describes — with
// statistics reset at warmup and a run to the horizon. Fabric.Init
// takes the config without validating it again; the station bound,
// which only the simulator has, is checked here before anything is
// built. A non-nil rec is attached to the engine's and fabric's probe
// seams; attachment never changes the trajectory or the counters. The
// caller releases the returned run once it has read it. On error the
// replication goes back to the pool if nothing was built on it, and is
// dropped otherwise: a failed Init or run leaves it in no state worth
// reasoning about.
func simulate(lower func(*topo.Config) error, seed int64, stream uint64, warmup, horizon float64, rec *obs.Recorder) (simRun, error) {
	rep := replications.Get().(*replication)
	cfg := &rep.cfg
	if err := lower(cfg); err != nil {
		replications.Put(rep)
		return simRun{}, err
	}
	stations := 0
	for _, s := range cfg.Segments {
		stations += s.Stations
	}
	if stations > MaxSimProcessors {
		replications.Put(rep)
		return simRun{}, fmt.Errorf(
			"busnet: %d processors exceed the discrete-event backend's %d-station bound; for large-N curves of a flat config, use the %q backend",
			stations, MaxSimProcessors, BackendFluid)
	}
	eng := rep.eng
	rep.rng.Reseed(seed, stream)
	fab := &rep.fab
	if err := fab.Init(*cfg, eng, rep.rng); err != nil {
		return simRun{}, err
	}
	if rec != nil {
		eng.SetProbe(rec)
		fab.SetProbe(rec)
	}
	fab.Start()
	var warmupEvents uint64
	if warmup > 0 {
		if err := eng.RunUntil(warmup); err != nil {
			return simRun{}, err
		}
		fab.ResetStats()
		// Truncate the event count with the rest of the statistics so
		// every measured field covers the same interval.
		warmupEvents = eng.Processed()
	}
	if err := eng.RunUntil(horizon); err != nil {
		return simRun{}, err
	}
	fc := fab.Counters()
	return simRun{
		fabric: fab,
		events: eng.Processed() - warmupEvents,
		diag: &Diagnostics{
			Engine:          eng.Counters(),
			Stalls:          fc.Stalls,
			ArbScanSlots:    fc.ArbScanSlots,
			BridgeCrossings: fc.BridgeCrossings,
			BridgeBlocks:    fc.BridgeBlocks,
		},
		rep: rep,
	}, nil
}
