// Package sim provides a deterministic discrete-event simulation engine:
// an event scheduler ordered by (time, insertion sequence), a simulation
// clock, seeded random-variate generation, and statistics collectors.
//
// Determinism contract: given the same seed and the same sequence of
// Schedule calls, an Engine processes events in exactly the same order and
// produces bit-identical statistics. Ties in event time are broken by
// insertion order, never by map iteration or pointer identity.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Engine drives a single-threaded discrete-event simulation. All state
// mutation happens inside event callbacks, which the engine fires in
// nondecreasing time order.
//
// The engine stores its events by index in an arena it owns: a pending
// event is a pointer-free record in the timing wheel's arena plus its
// callback at the same index in fns. A fired event's index goes back on
// a free list and is reused by the next Schedule call, so the
// steady-state loop performs zero heap allocations per event.
// Callbacks should be long-lived values — a fresh closure per Schedule
// call reintroduces one allocation per event. Reset carries the arena,
// and the wheel's memory, over into the next run on the same engine.
type Engine struct {
	w         wheel
	fns       []func() // fns[i] is pending event i's callback; nil once it fires
	free      []int32  // pooled event indices, reused last in first out
	now       float64
	processed uint64
	running   bool

	// Observability: probe is the nil-by-default hook seam (see Probe);
	// the counters are always-on plain increments — cheap enough to live
	// on the hot path, and they are what makes a run's Diagnostics
	// bit-deterministic whether or not a probe is attached.
	probe      Probe
	poolHits   uint64
	poolMisses uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{fns: make([]func(), 1)}
	e.w.ev = make([]event, 1)
	e.w.heads = make([]int32, wheelMinBuckets)
	e.w.bits = make([]uint64, wheelMinBuckets/64)
	e.w.reset()
	return e
}

// Reset returns the engine to the logical state NewEngine builds: the
// clock at zero, no pending events, every counter cleared, no probe,
// and the wheel's geometry back to its defaults. It keeps the memory:
// the arena, the free list, the bucket arrays and the overflow heap. A
// run after Reset fires the same events in the same order as on a fresh
// engine, with bit-identical Counters — an event index the previous
// runs minted is not pooled, so taking it back counts as a pool miss —
// and allocates only what the previous runs never needed.
func (e *Engine) Reset() {
	e.w.reset()
	clear(e.fns) // pending callbacks: retain none of their captures
	*e = Engine{w: e.w, fns: e.fns[:1], free: e.free[:0]}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule schedules fn to fire delay time units from now. A negative
// or NaN delay panics: it is always a model bug, and silently clamping
// it would corrupt causality.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	// delay ≥ 0 and non-NaN implies now+delay ≥ now: causality holds.
	t := e.now + delay
	i := e.alloc()
	e.fns[i] = fn
	e.w.push(i, t)
	if e.probe != nil {
		e.probe.EventScheduled(t, e.now)
	}
}

// alloc takes an event index from the free list, or appends a record to
// the arena when the list is empty — a pool miss. The list's high-water
// mark is the peak concurrently-pending event count, so a steady-state
// run stops missing once the model's working set is reached; after a
// Reset, the arena's capacity makes a miss allocation-free.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.poolHits++
		return i
	}
	e.poolMisses++
	e.w.ev = append(e.w.ev, event{})
	e.fns = append(e.fns, nil)
	return int32(len(e.fns) - 1)
}

// ErrStopped is returned by Run and RunUntil when — and only when — Stop
// was called from inside an event. Draining the pending set or reaching
// the horizon returns nil.
var ErrStopped = errors.New("sim: stopped")

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.running = false }

// RunUntil fires events in order until the pending set is empty or the
// next event is strictly after horizon. The clock is left at
// min(horizon, last event time): if events remain past the horizon the
// clock advances to horizon exactly, so time-weighted statistics cover
// the full interval. It returns ErrStopped only when Stop was called. A
// NaN horizon is refused like one before now: it bounds nothing.
func (e *Engine) RunUntil(horizon float64) error {
	if horizon < e.now || math.IsNaN(horizon) {
		return fmt.Errorf("sim: horizon %v before now %v", horizon, e.now)
	}
	if e.loop(horizon) {
		return ErrStopped
	}
	if e.now < horizon {
		e.now = horizon
	}
	return nil
}

// Run fires events until the pending set is empty (returning nil) or
// Stop is called (returning ErrStopped).
func (e *Engine) Run() error {
	if e.loop(math.Inf(1)) {
		return ErrStopped
	}
	return nil
}

// loop fires the events due by horizon in order until none is left or
// an event calls Stop, and reports whether one did. Each fire advances
// the clock, recycles the event's index and runs its callback. The
// callback is cleared first, so the arena never retains its captures
// beyond the event's lifetime, and the index is free before the
// callback runs, so a callback rescheduling itself reuses it.
func (e *Engine) loop(horizon float64) (stopped bool) {
	e.running = true
	for e.running {
		i := e.w.popLE(horizon)
		if i == 0 {
			return false
		}
		e.now = e.w.ev[i].t
		e.processed++
		if e.probe != nil {
			e.probe.EventFired(e.now)
		}
		fn := e.fns[i]
		e.fns[i] = nil
		e.free = append(e.free, i)
		fn()
	}
	return true
}
