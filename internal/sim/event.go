package sim

// Event is a scheduled callback. Events are ordered by Time; events with
// equal Time fire in the order they were scheduled (seq).
//
// Lifetime: the engine pools events. A *Event returned by Schedule /
// ScheduleAt is a handle valid only while the event is pending — once it
// fires or is cancelled the engine recycles the object for a future
// Schedule call, so a retained handle may suddenly refer to a different
// logical event. Cancel a handle only while you know its event has not
// fired (the model owns that knowledge: e.g. a timeout cancelled by the
// completion it guards, before anything else can be scheduled).
type Event struct {
	Time float64

	// next/prev link the event into its timing-wheel bucket: buckets are
	// intrusive doubly-linked lists through the pooled events themselves,
	// so scheduling is a couple of pointer stores into cache-hot structs
	// and cancellation is an O(1) unlink.
	next *Event
	prev *Event

	Fn func()

	seq   uint64 // insertion order, assigned by the scheduler on Push
	index int    // position inside the overflow/oracle heap's slice
	slot  int    // timing-wheel bucket index, or slotNone / slotOverflow
}

// Seq returns the insertion sequence number assigned when the event was
// pushed. Exposed for tests and debugging.
func (e *Event) Seq() uint64 { return e.seq }

// scheduler is the engine's pending-event set. Both implementations —
// the binary EventHeap and the TimingWheel — maintain the same total
// order, (Time, seq) with seq assigned in Push call order, so they are
// interchangeable and differentially testable: identical Push/Remove
// sequences must produce identical Pop sequences.
type scheduler interface {
	// Len reports the number of pending events.
	Len() int
	// Push inserts an event and assigns its insertion sequence number.
	Push(e *Event)
	// Peek returns the earliest event without removing it, or nil.
	Peek() *Event
	// Pop removes and returns the earliest event, or nil when empty.
	Pop() *Event
	// PopLE removes and returns the earliest event with Time ≤ limit,
	// or nil — the engine's fused peek-and-pop for horizon-bounded runs.
	PopLE(limit float64) *Event
	// Remove cancels a pending event by identity, reporting whether it
	// was pending.
	Remove(e *Event) bool
	// reset drops every pending event, appending each to spare with its
	// callback cleared, and returns the scheduler to its constructor's
	// logical state while keeping its memory.
	reset(spare []*Event) []*Event
}

// detach clears a pending event that a scheduler reset drops — its
// callback, so the spare list retains no captures, and its position, so
// a stale handle's Cancel reports false — and appends it to spare.
func detach(spare []*Event, e *Event) []*Event {
	*e = Event{index: -1, slot: slotNone}
	return append(spare, e)
}

var (
	_ scheduler = (*EventHeap)(nil)
	_ scheduler = (*TimingWheel)(nil)
)
