package main

import (
	"encoding/json"
	"io"
	"time"
)

// tracer keeps spans recorded around the benchmark's own calls into the
// program: pass → call (a sweep curve or an opt.Solve) → point. Spans
// stay in memory and are written out when the run ends. A nil tracer
// records nothing and never reads the clock.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed interval; parent is the index of the enclosing span,
// -1 for a root.
type span struct {
	name, cat  string
	start, end time.Duration
	parent     int
	args       map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns the offset from the tracer's start; 0 when untraced.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.t0)
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name, cat string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, cat: cat, start: t.now(), parent: parent})
	return len(t.spans) - 1
}

// end closes span id and attaches args.
func (t *tracer) end(id int, args map[string]any) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.spans[id].args = args
}

// add records a span whose interval is already known.
func (t *tracer) add(name, cat string, parent int, start, end time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, cat: cat, start: start, end: end, parent: parent, args: args})
}

// writeChrome exports the spans as Chrome trace-event JSON (complete
// "X" events in microseconds), which Perfetto and chrome://tracing load.
// All spans share one track: the benchmark runs on one goroutine, so
// they nest properly by time.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1, Args: args}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
