// Package sim provides a deterministic discrete-event simulation engine:
// an event scheduler ordered by (time, insertion sequence), a simulation
// clock, seeded random-variate generation, and statistics collectors.
//
// Determinism contract: given the same seed and the same sequence of
// Schedule calls, an Engine processes events in exactly the same order and
// produces bit-identical statistics. Ties in event time are broken by
// insertion order, never by map iteration or pointer identity.
package sim

// EventHeap is a binary min-heap of events keyed by (Time, seq).
// It is not safe for concurrent use; the engine is single-threaded by
// design so that runs are reproducible.
//
// The engine's default scheduler is the TimingWheel; the heap remains as
// the simple, obviously-correct oracle the wheel is differentially
// tested against, and as the wheel's sorted overflow level for
// far-future events.
type EventHeap struct {
	events  []*Event
	nextSeq uint64
}

// NewEventHeap returns an empty heap with optional pre-allocated capacity.
func NewEventHeap(capacity int) *EventHeap {
	return &EventHeap{events: make([]*Event, 0, capacity)}
}

// Len reports the number of pending events.
func (h *EventHeap) Len() int { return len(h.events) }

// Push inserts an event and assigns its insertion sequence number.
func (h *EventHeap) Push(e *Event) {
	e.seq = h.nextSeq
	h.nextSeq++
	h.pushKeyed(e)
}

// pushKeyed inserts an event whose (Time, seq) key is already assigned —
// the timing wheel's overflow path, where the wheel owns seq numbering.
func (h *EventHeap) pushKeyed(e *Event) {
	e.index = len(h.events)
	h.events = append(h.events, e)
	h.up(e.index)
}

// Peek returns the earliest event without removing it, or nil when empty.
func (h *EventHeap) Peek() *Event {
	if len(h.events) == 0 {
		return nil
	}
	return h.events[0]
}

// PopLE removes and returns the earliest event whose time is ≤ limit, or
// nil when the heap is empty or the earliest event lies beyond the limit.
func (h *EventHeap) PopLE(limit float64) *Event {
	if len(h.events) == 0 || h.events[0].Time > limit {
		return nil
	}
	return h.Pop()
}

// Pop removes and returns the earliest event, or nil when empty.
func (h *EventHeap) Pop() *Event {
	if len(h.events) == 0 {
		return nil
	}
	min := h.events[0]
	last := len(h.events) - 1
	h.events[0] = h.events[last]
	h.events[0].index = 0
	h.events[last] = nil
	h.events = h.events[:last]
	if last > 0 {
		h.down(0)
	}
	min.index = -1
	return min
}

// Remove cancels a pending event by identity. It returns false when the
// event is not in the heap (already fired or cancelled).
func (h *EventHeap) Remove(e *Event) bool {
	i := e.index
	if i < 0 || i >= len(h.events) || h.events[i] != e {
		return false
	}
	last := len(h.events) - 1
	if i != last {
		h.events[i] = h.events[last]
		h.events[i].index = i
	}
	h.events[last] = nil
	h.events = h.events[:last]
	if i < last {
		if !h.down(i) {
			h.up(i)
		}
	}
	e.index = -1
	return true
}

// reset drops every pending event into spare and restarts the sequence
// numbering, keeping the slice's capacity.
func (h *EventHeap) reset(spare []*Event) []*Event {
	for _, e := range h.events {
		spare = detach(spare, e)
	}
	clear(h.events)
	h.events = h.events[:0]
	h.nextSeq = 0
	return spare
}

// less orders by time, then by insertion sequence for FIFO tie-breaking.
func (h *EventHeap) less(i, j int) bool {
	a, b := h.events[i], h.events[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.seq < b.seq
}

func (h *EventHeap) swap(i, j int) {
	h.events[i], h.events[j] = h.events[j], h.events[i]
	h.events[i].index = i
	h.events[j].index = j
}

func (h *EventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *EventHeap) down(i int) bool {
	start := i
	n := len(h.events)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return i > start
}
