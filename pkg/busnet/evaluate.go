package busnet

import (
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
// segment) configuration with any backend. It subsumes the historical
// trio — Network.Run is Evaluate(cfg, BackendSim), Predict is
// Evaluate(cfg, BackendAnalytic), FluidPredict is
// Evaluate(cfg, BackendFluid) — which survive as thin shims over this
// function. The backend argument accepts the zero value ("" resolves
// to BackendSim, matching ParseBackend) so callers can thread a
// Backend straight from JSON or flags.
//
// Backend domains differ: the analytic backend refuses non-Poisson
// traffic and most non-exponential-service regimes (see the Predict
// shim's doc for the exact model mapping), and the fluid backend
// refuses everything its symmetric mean-field balance cannot represent
// (see FluidPredict). The simulator accepts any valid Config up to
// MaxSimProcessors stations.
func Evaluate(cfg Config, backend Backend) (Evaluation, error) {
	b, err := ParseBackend(string(backend))
	if err != nil {
		return Evaluation{}, err
	}
	return evaluate(cfg, b, nil)
}

// evaluate runs cfg on the resolved backend b. A non-nil rec, which
// callers pass only with BackendSim, is attached to the simulation's
// probe seams.
func evaluate(cfg Config, b Backend, rec *obs.Recorder) (Evaluation, error) {
	switch b {
	case BackendAnalytic:
		p, err := predict(cfg)
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
	case BackendFluid:
		p, err := fluidPredict(cfg)
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
	default:
		res, err := runSim(cfg, rec)
		if err != nil {
			return Evaluation{}, err
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
}

// runSim is the discrete-event backend for a flat config: simulate runs
// the config's one-segment fabric (Config.node), and Results are read
// off segment 0. Deterministic in (Config, Seed, Stream); every field of
// Results covers the measured interval only, except Diagnostics, which
// covers the whole run.
func runSim(cfg Config, rec *obs.Recorder) (Results, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return Results{}, err
	}
	fabric := topo.Config{
		Segments:  []topo.SegmentConfig{cfg.node().segment(cfg.Processors)},
		Quantiles: cfg.Quantiles,
	}
	run, err := simulate(fabric, cfg.Seed, cfg.Stream, cfg.Warmup, cfg.Horizon, rec)
	if err != nil {
		return Results{}, err
	}
	m := run.fabric.SegmentSnapshot(0)
	return Results{
		Config:            cfg,
		MeasuredTime:      run.fabric.Elapsed(),
		Events:            run.events,
		Issued:            m.Issued,
		Completions:       m.Completions,
		Throughput:        m.Throughput,
		Utilization:       m.Utilization,
		BusUtilization:    m.BusUtilization,
		MeanQueueLen:      m.MeanQueueLen,
		MaxQueueLen:       m.MaxQueueLen,
		MeanWait:          m.MeanWait,
		WaitStdDev:        m.WaitStdDev,
		MaxWait:           m.MaxWait,
		MeanResponse:      m.MeanResponse,
		WaitQuantiles:     QuantilesFrom(m.WaitHist),
		ResponseQuantiles: QuantilesFrom(m.RespHist),
		WaitHistogram:     m.WaitHist,
		ResponseHistogram: m.RespHist,
		Grants:            m.Grants,
		Diagnostics:       run.diag,
	}, nil
}

// simRun is one finished simulation: the fabric at the horizon, the
// events fired after warmup, and the whole run's counters.
type simRun struct {
	fabric *topo.Fabric
	events uint64
	diag   *Diagnostics
}

// simulate is the one discrete-event runner behind every BackendSim
// evaluation, flat or topology: a fresh engine and RNG substream, the
// fabric cfg describes, statistics reset at warmup, and a run to the
// horizon. A non-nil rec is attached to the engine's and fabric's probe
// seams; attachment never changes the trajectory or the counters.
func simulate(cfg topo.Config, seed int64, stream uint64, warmup, horizon float64, rec *obs.Recorder) (simRun, error) {
	eng := sim.NewEngine()
	fab, err := topo.New(cfg, eng, sim.NewRNGStream(seed, stream))
	if err != nil {
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
	}, nil
}
