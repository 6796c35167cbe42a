package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/obs"
	"github.com/busnet/busnet/internal/sim"
)

// EngineCounters re-exports the discrete-event engine's deterministic
// self-measurement: event lifecycle totals, event-pool hit/miss split,
// and timing-wheel overflow/rebase/resize counts. See the field docs on
// the internal type.
type EngineCounters = sim.EngineCounters

// FlightRecorder re-exports the fixed-capacity flight recorder: a
// last-K ring of engine, arbitration, and bridge events with per-kind
// sampling, exportable as Chrome trace-event JSON via WriteTrace. Build
// one with NewFlightRecorder and pass it to EvaluateTraced or
// EvaluateTopologyTraced; attaching it never changes the simulated
// trajectory and keeps the run allocation-free.
type FlightRecorder = obs.Recorder

// NewFlightRecorder returns a recorder holding the last capacity
// events (capacity < 1 is clamped to 1).
func NewFlightRecorder(capacity int) *FlightRecorder { return obs.New(capacity) }

// Diagnostics is a run's deterministic self-measurement, populated by
// the discrete-event backend only: engine counters plus model counters
// (arbitration stalls and scan work; bridge traffic for topologies —
// zero on flat runs). Totals cover the whole run from time zero, NOT
// the warmup-truncated measured interval, because they measure the
// machinery rather than the model's steady state. For a fixed config,
// seed, and stream the counters are bit-identical on every run — each
// simulation is single-threaded, so sweep worker counts cannot change
// them — which makes them usable as regression goldens.
type Diagnostics struct {
	Engine EngineCounters `json:"engine"`
	// Stalls counts requests held at a full buffered-finite interface.
	Stalls uint64 `json:"stalls"`
	// ArbScanSlots is the total claimant slots a one-by-one cyclic scan
	// would probe to reach every grant (the arbiters compute it from
	// each grant's distance); divide by grants for the mean arbitration
	// scan length.
	ArbScanSlots uint64 `json:"arb_scan_slots"`
	// BridgeCrossings and BridgeBlocks count bridge traffic and
	// blocking-after-service events; always zero on flat (one-segment)
	// runs.
	BridgeCrossings uint64 `json:"bridge_crossings"`
	BridgeBlocks    uint64 `json:"bridge_blocks"`
}

// Accumulate adds o's totals into d, field by field — the sweep layer's
// per-point aggregation across replications.
func (d *Diagnostics) Accumulate(o Diagnostics) {
	d.Engine.Scheduled += o.Engine.Scheduled
	d.Engine.Fired += o.Engine.Fired
	d.Engine.Cancelled += o.Engine.Cancelled
	d.Engine.PoolHits += o.Engine.PoolHits
	d.Engine.PoolMisses += o.Engine.PoolMisses
	d.Engine.WheelOverflow += o.Engine.WheelOverflow
	d.Engine.WheelRebases += o.Engine.WheelRebases
	d.Engine.WheelResizes += o.Engine.WheelResizes
	d.Stalls += o.Stalls
	d.ArbScanSlots += o.ArbScanSlots
	d.BridgeCrossings += o.BridgeCrossings
	d.BridgeBlocks += o.BridgeBlocks
}

// EvaluateTraced is Evaluate with a flight recorder attached to the
// simulation's probe seams, capturing engine and fabric (arbitration,
// and on topologies bridge) events. rec may be nil, in which case it
// behaves exactly like Evaluate. Tracing is a simulation-level facility:
// a non-nil recorder with an analytic or fluid backend is refused rather
// than silently ignored.
func EvaluateTraced(cfg Config, backend Backend, rec *FlightRecorder) (Evaluation, error) {
	b, err := parseTracedBackend(backend, rec)
	if err != nil {
		return Evaluation{}, err
	}
	return evaluate(cfg, b, rec)
}

// EvaluateTopologyTraced is EvaluateTopology with a flight recorder
// attached; see EvaluateTraced for the recorder contract.
func EvaluateTopologyTraced(t Topology, backend Backend, rec *FlightRecorder) (TopologyEvaluation, error) {
	b, err := parseTracedBackend(backend, rec)
	if err != nil {
		return TopologyEvaluation{}, err
	}
	return evaluateTopology(t, b, rec)
}

// parseTracedBackend resolves backend and refuses a non-nil recorder on
// a backend that fires no events.
func parseTracedBackend(backend Backend, rec *FlightRecorder) (Backend, error) {
	b, err := ParseBackend(string(backend))
	if err != nil {
		return "", err
	}
	if rec != nil && b != BackendSim {
		return "", fmt.Errorf("busnet: tracing needs the %q backend, not %q — closed-form backends fire no events", BackendSim, b)
	}
	return b, nil
}
