package sim

// Probe receives event-lifecycle callbacks from an Engine. It is the
// engine's observability seam: nil (the default) means disabled, and
// the disabled path costs exactly one predicted-not-taken branch per
// hook point — the alloc locks and the probe-disabled benchmarks pin
// that the hot loop stays allocation-free and inside the benchstat gate
// either way.
//
// Probes run synchronously inside the engine loop, so implementations
// must not allocate per call if the run's zero-allocation contract is
// to survive with the probe attached (the obs flight recorder writes
// into a preallocated ring for exactly this reason), must not call back
// into the engine, and see a single-threaded, deterministic callback
// sequence: for a fixed (Config, Seed, Stream) the exact same calls
// arrive in the exact same order on every run.
type Probe interface {
	// EventScheduled fires after an event is pushed: its fire time and
	// the current clock.
	EventScheduled(t, now float64)
	// EventFired fires before the event's callback runs, with the clock
	// already advanced to its time.
	EventFired(now float64)
}

// EngineCounters is the engine's deterministic self-measurement: plain
// totals over a run, bit-identical for equal (Config, Seed, Stream)
// regardless of probe attachment or worker count (each run is
// single-threaded). Counters cover the whole run from construction or
// the last Reset — they are not warmup-truncated, because they measure
// the engine, not the model's steady state.
type EngineCounters struct {
	// Scheduled and Fired count event lifecycle transitions;
	// Scheduled = Fired + still-pending. Cancelled is always 0: the
	// engine cannot cancel an event. It stays in the output schema
	// until the field's removal changes that schema on purpose.
	Scheduled uint64 `json:"scheduled"`
	Fired     uint64 `json:"fired"`
	Cancelled uint64 `json:"cancelled"`
	// PoolHits and PoolMisses split Scheduled by where the event's
	// record came from: the free list, or a new slot in the arena.
	// Misses stop once the pool reaches the model's peak pending count,
	// so the steady-state hit rate approaches 1.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// WheelOverflow counts pushes that landed beyond the timing wheel's
	// window (parked in the sorted overflow heap); WheelRebases counts
	// window slides, and WheelResizes the rebases that also changed
	// the bucket count.
	WheelOverflow uint64 `json:"wheel_overflow"`
	WheelRebases  uint64 `json:"wheel_rebases"`
	WheelResizes  uint64 `json:"wheel_resizes"`
}

// SetProbe attaches p to the engine's schedule and fire hook points,
// or detaches with nil. Attach before Start/Run: swapping probes
// mid-run is allowed but the record obviously starts at the swap.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// Counters returns the engine's deterministic counters as of now.
func (e *Engine) Counters() EngineCounters {
	return EngineCounters{
		Scheduled:     e.poolHits + e.poolMisses,
		Fired:         e.processed,
		PoolHits:      e.poolHits,
		PoolMisses:    e.poolMisses,
		WheelOverflow: e.w.nOverflow,
		WheelRebases:  e.w.nRebases,
		WheelResizes:  e.w.nResizes,
	}
}
