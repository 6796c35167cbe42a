package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Chrome trace-event mapping. One simulated time unit maps to one
// microsecond of trace time (ts/dur are in µs by convention), so the
// viewer's timeline reads directly in simulated time.
//
// Track layout:
//   - pid 0 is the engine: event-fired/scheduled instants on
//     tid 0, and one counter track per bridge (queue length).
//   - pid 1+seg is segment seg (a flat run is a one-segment fabric and
//     exports as segment 0, pid 1): "serve" and "blocked" complete-spans
//     on tid = bus, "wait" spans on tid = claimant (the station, on a
//     flat run), "stall" and "bridge-block" instants.
//
// Span reconstruction needs no pairing state: Complete-style records
// carry their own duration, so a span is emitted retroactively as
// ts = T − dur. Records whose matching start fell off the ring are
// therefore never half-open — every span in the export is whole.

// traceEvent is one entry of the Chrome trace-event "traceEvents"
// array. Fields follow the Trace Event Format spec; Scope ("s") is only
// set on instant events, Args only where a value attaches.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of the trace format.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace exports the held records as Chrome trace-event JSON. The
// output is always a valid JSON object with a traceEvents array, even
// when the ring is empty. Non-finite times and durations (possible only
// if a model schedules at +Inf) are clamped to 0 so the output stays
// valid JSON — encoding/json rejects NaN/Inf.
func (r *Recorder) WriteTrace(w io.Writer) error {
	events := make([]traceEvent, 0, r.n+8)
	type pidName struct {
		pid  int
		name string
	}
	var pids []pidName
	seen := map[int]bool{}
	for _, rec := range r.Records() {
		ev, pid, name, ok := rec.traceEvent()
		if !ok {
			continue
		}
		events = append(events, ev)
		if !seen[pid] {
			seen[pid] = true
			pids = append(pids, pidName{pid, name})
		}
	}
	// Name the process tracks so the viewer labels them; metadata events
	// go after the data in first-seen pid order, keeping the whole export
	// a deterministic function of the captured records.
	for _, p := range pids {
		events = append(events, traceEvent{
			Name: "process_name", Ph: "M", Pid: p.pid,
			Args: map[string]any{"name": p.name},
		})
	}
	buf, err := json.Marshal(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	_, err = w.Write(buf)
	return err
}

// finite clamps NaN/±Inf to 0 for JSON safety.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// span builds an "X" complete event ending at rec.T with duration d.
// Durations are clamped to ≥ 0: the trace format requires it, and no
// probe produces a negative span from a causally-ordered run.
func span(name string, cat Kind, t, d float64, pid, tid int) traceEvent {
	t, d = finite(t), finite(d)
	if d < 0 {
		d = 0
	}
	dur := d
	return traceEvent{Name: name, Cat: cat.String(), Ph: "X", Ts: t - d, Dur: &dur, Pid: pid, Tid: tid}
}

// instant builds a thread-scoped "i" instant event.
func instant(name string, cat Kind, t float64, pid, tid int) traceEvent {
	return traceEvent{Name: name, Cat: cat.String(), Ph: "i", Ts: finite(t), Pid: pid, Tid: tid, Scope: "t"}
}

// traceEvent maps one record to its trace event plus the pid label to
// register. ok=false drops record kinds with no trace representation.
func (rec Record) traceEvent() (ev traceEvent, pid int, pidName string, ok bool) {
	const enginePid = 0
	segPid := func(seg int) (int, string) { return 1 + seg, fmt.Sprintf("segment %d", seg) }
	switch rec.Kind {
	case KindEventScheduled:
		return instant("sched", rec.Kind, rec.T, enginePid, 0), enginePid, "engine", true
	case KindEventFired:
		return instant("fire", rec.Kind, rec.T, enginePid, 0), enginePid, "engine", true
	case KindHopGrant:
		p, n := segPid(rec.A)
		return span("wait", rec.Kind, rec.T, rec.D, p, rec.B), p, n, true
	case KindHopStall:
		p, n := segPid(rec.A)
		return instant("stall", rec.Kind, rec.T, p, rec.B), p, n, true
	case KindHopComplete:
		p, n := segPid(rec.A)
		return span("serve", rec.Kind, rec.T, rec.D, p, rec.B), p, n, true
	case KindBridgeEnqueue:
		ev := traceEvent{
			Name: fmt.Sprintf("bridge %d queue", rec.A), Cat: rec.Kind.String(),
			Ph: "C", Ts: finite(rec.T), Pid: enginePid, Tid: 0,
			Args: map[string]any{"qlen": rec.B},
		}
		return ev, enginePid, "engine", true
	case KindBridgeBlock:
		p, n := segPid(rec.B)
		return instant("bridge-block", rec.Kind, rec.T, p, rec.C), p, n, true
	case KindBridgeRelease:
		p, n := segPid(rec.B)
		return span("blocked", rec.Kind, rec.T, rec.D, p, rec.C), p, n, true
	}
	return traceEvent{}, 0, "", false
}
