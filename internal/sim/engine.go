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
// The engine owns a free list of Event objects: every fired or cancelled
// event is recycled into the next Schedule call, so the steady-state
// loop performs zero heap allocations per event (see the lifetime rule
// on Event). Callbacks should likewise be long-lived values — a fresh
// closure per Schedule call reintroduces one allocation per event.
// Reset carries the events, and the scheduler's memory, over into the
// next run on the same engine.
type Engine struct {
	sched     scheduler
	free      []*Event
	now       float64
	processed uint64
	running   bool

	// Observability: probe is the nil-by-default hook seam (see Probe);
	// the counters are always-on plain increments — cheap enough to live
	// on the hot path, and they are what makes a run's Diagnostics
	// bit-deterministic whether or not a probe is attached.
	probe      Probe
	cancelled  uint64
	poolHits   uint64
	poolMisses uint64

	// spare holds the events a Reset took back: memory, not pool. A
	// miss takes one before allocating, so a reset engine counts its
	// pool hits and misses exactly as a fresh one does.
	spare []*Event
}

// NewEngine returns an engine with the clock at zero, scheduling on the
// timing wheel.
func NewEngine() *Engine { return &Engine{sched: NewTimingWheel()} }

// newEngineOn returns an engine driven by an explicit scheduler — the
// seam the differential tests use to run the retained binary heap
// against the wheel.
func newEngineOn(s scheduler) *Engine { return &Engine{sched: s} }

// Reset returns the engine to the logical state NewEngine builds: the
// clock at zero, no pending events, every counter cleared, no probe,
// and the scheduler's geometry back to its defaults. It keeps the
// memory: the wheel's bucket arrays, the overflow heap's slice and
// every Event the engine ever minted. A run after Reset fires the same
// events in the same order as on a fresh engine, with bit-identical
// Counters, and allocates only what the previous runs never needed.
// Handles from before the reset are stale (see Event).
func (e *Engine) Reset() {
	spare := e.sched.reset(append(e.spare, e.free...))
	clear(e.free)
	*e = Engine{sched: e.sched, free: e.free[:0], spare: spare}
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.sched.Len() }

// ScheduleAt schedules fn to fire at absolute time t. Scheduling in the
// past panics: it is always a model bug and silently clamping it would
// corrupt causality.
func (e *Engine) ScheduleAt(t float64, fn func()) *Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduled event at t=%v before now=%v", t, e.now))
	}
	return e.push(t, fn)
}

// Schedule schedules fn to fire delay time units from now.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	// delay ≥ 0 and non-NaN implies now+delay ≥ now: causality is already
	// guaranteed, so skip ScheduleAt's re-validation on the hot path.
	return e.push(e.now+delay, fn)
}

func (e *Engine) push(t float64, fn func()) *Event {
	ev := e.alloc()
	ev.Time = t
	ev.Fn = fn
	e.sched.Push(ev)
	if e.probe != nil {
		e.probe.EventScheduled(t, e.now)
	}
	return ev
}

// Cancel removes a pending event, recycling it into the engine's event
// pool. It returns false when ev is not pending. Per the Event lifetime
// rule, call it only on handles whose event is known not to have fired:
// a handle goes stale — and may alias a newer event — once its event
// fires or is cancelled.
func (e *Engine) Cancel(ev *Event) bool {
	if !e.sched.Remove(ev) {
		return false
	}
	e.cancelled++
	if e.probe != nil {
		e.probe.EventCancelled(ev.Time, e.now)
	}
	e.release(ev)
	return true
}

// alloc takes an Event from the free list, or mints one when empty. The
// list's high-water mark is the peak concurrently-pending event count,
// so a steady-state run stops allocating once the model's working set is
// reached. A miss is minted from the spare events of earlier runs while
// any remain.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		e.poolHits++
		return ev
	}
	e.poolMisses++
	if n := len(e.spare); n > 0 {
		ev := e.spare[n-1]
		e.spare = e.spare[:n-1]
		return ev
	}
	return new(Event)
}

// release recycles a fired or cancelled event. Fn is cleared so the pool
// never retains a callback's captures beyond the event's lifetime.
func (e *Engine) release(ev *Event) {
	ev.Fn = nil
	e.free = append(e.free, ev)
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
	e.running = true
	for e.running {
		ev := e.sched.PopLE(horizon)
		if ev == nil {
			break
		}
		e.now = ev.Time
		e.processed++
		if e.probe != nil {
			e.probe.EventFired(e.now)
		}
		fn := ev.Fn
		e.release(ev)
		fn()
	}
	if !e.running {
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
	e.running = true
	for e.running {
		ev := e.sched.Pop()
		if ev == nil {
			return nil
		}
		e.now = ev.Time
		e.processed++
		if e.probe != nil {
			e.probe.EventFired(e.now)
		}
		fn := ev.Fn
		e.release(ev)
		fn()
	}
	return ErrStopped
}
