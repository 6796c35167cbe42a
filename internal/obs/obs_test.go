package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestRingLastK(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.EventFired(float64(i))
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("Len, Cap = %d, %d, want 4, 4", r.Len(), r.Cap())
	}
	if r.Overwritten() != 6 {
		t.Fatalf("Overwritten = %d, want 6", r.Overwritten())
	}
	recs := r.Records()
	for i, rec := range recs {
		if want := float64(6 + i); rec.T != want {
			t.Errorf("Records()[%d].T = %v, want %v (oldest-first last-K)", i, rec.T, want)
		}
		if want := uint64(6 + i); rec.Seq != want {
			t.Errorf("Records()[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := New(8)
	r.EventFired(1)
	r.EventFired(2)
	recs := r.Records()
	if len(recs) != 2 || recs[0].T != 1 || recs[1].T != 2 {
		t.Fatalf("Records() = %+v, want two records at T=1,2", recs)
	}
}

func TestSampling(t *testing.T) {
	r := New(64)
	r.Sample(KindEventFired, 3)
	for i := 0; i < 9; i++ {
		r.EventFired(float64(i))
		r.EventScheduled(10, float64(i)) // unsampled kind, kept every time
	}
	if r.Seen(KindEventFired) != 9 {
		t.Fatalf("Seen(fired) = %d, want 9", r.Seen(KindEventFired))
	}
	fired, sched := 0, 0
	for _, rec := range r.Records() {
		switch rec.Kind {
		case KindEventFired:
			fired++
		case KindEventScheduled:
			sched++
		}
	}
	if fired != 3 || sched != 9 {
		t.Fatalf("kept fired, sched = %d, %d, want 3, 9 (1-in-3 sampling)", fired, sched)
	}
	r.Sample(KindEventFired, 1) // restore keep-all
	r.Reset()
	r.EventFired(0)
	if got := len(r.Records()); got != 1 {
		t.Fatalf("after Sample(k,1): kept %d of 1", got)
	}
}

func TestReset(t *testing.T) {
	r := New(2)
	r.EventFired(1)
	r.EventFired(2)
	r.EventFired(3)
	r.Reset()
	if r.Len() != 0 || r.Overwritten() != 0 || r.Seen(KindEventFired) != 0 {
		t.Fatalf("Reset left state: Len=%d Overwritten=%d Seen=%d",
			r.Len(), r.Overwritten(), r.Seen(KindEventFired))
	}
	r.EventFired(9)
	if recs := r.Records(); len(recs) != 1 || recs[0].Seq != 0 {
		t.Fatalf("post-Reset Records() = %+v, want one record with Seq 0", recs)
	}
}

// TestCaptureAllocFree pins the recorder's core contract: attaching it
// must not reintroduce per-event allocations.
func TestCaptureAllocFree(t *testing.T) {
	r := New(1024)
	r.Sample(KindEventScheduled, 4)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r.EventScheduled(float64(i+1), float64(i))
		r.EventFired(float64(i))
		r.HopGrant(float64(i), i%2, i%16, i%3, 0.5)
		r.HopComplete(float64(i), i%2, i%3, 1.5)
		r.BridgeEnqueue(float64(i), 0, i%8)
		i++
	})
	if allocs != 0 {
		t.Fatalf("capture path allocates: %v allocs/run, want 0", allocs)
	}
}

// decodeTrace unmarshals exporter output and returns the traceEvents
// array, failing the test on any structural violation of the Chrome
// trace-event format.
func decodeTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if file.TraceEvents == nil {
		t.Fatalf("trace has no traceEvents array: %s", raw)
	}
	for i, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X", "i", "C", "M":
		default:
			t.Fatalf("traceEvents[%d]: bad ph %q", i, ev["ph"])
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("traceEvents[%d]: missing name", i)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("traceEvents[%d]: missing pid", i)
		}
		if ph == "M" {
			continue
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("traceEvents[%d]: missing ts", i)
		}
		if ph == "X" {
			if d, ok := ev["dur"].(float64); !ok || d < 0 {
				t.Fatalf("traceEvents[%d]: X event needs dur ≥ 0, got %v", i, ev["dur"])
			}
		}
		if ph == "i" {
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("traceEvents[%d]: instant scope = %q, want \"t\"", i, ev["s"])
			}
		}
	}
	return file.TraceEvents
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(4).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if evs := decodeTrace(t, buf.Bytes()); len(evs) != 0 {
		t.Fatalf("empty recorder exported %d events", len(evs))
	}
}

func TestWriteTraceMapsEveryKind(t *testing.T) {
	r := New(64)
	r.EventScheduled(5, 1)
	r.EventFired(2)
	r.HopGrant(4, 0, 7, 1, 0.5)
	r.HopStall(5, 0, 3)
	r.HopComplete(6, 0, 1, 2)
	r.HopGrant(7, 1, 4, 0, 0.25)
	r.HopStall(8, 1, 2)
	r.HopComplete(9, 1, 0, 1.5)
	r.BridgeEnqueue(10, 0, 3)
	r.BridgeBlock(11, 0, 0, 1)
	r.BridgeRelease(12, 0, 0, 1, 0.75)
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs := decodeTrace(t, buf.Bytes())
	cats := map[string]bool{}
	for _, ev := range evs {
		if c, ok := ev["cat"].(string); ok {
			cats[c] = true
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !cats[k.String()] {
			t.Errorf("kind %v produced no trace event", k)
		}
	}
	// A span ends at the capture time: serve on segment 0 (pid 1), bus 1
	// at T=6 with dur 2 must start at ts=4 on the bus's tid.
	found := false
	for _, ev := range evs {
		if ev["name"] == "serve" && ev["pid"].(float64) == 1 {
			found = true
			if ev["ts"].(float64) != 4 || ev["dur"].(float64) != 2 {
				t.Errorf("serve span ts, dur = %v, %v, want 4, 2", ev["ts"], ev["dur"])
			}
			if ev["tid"].(float64) != 1 {
				t.Errorf("serve span tid = %v, want 1", ev["tid"])
			}
		}
	}
	if !found {
		t.Error("no serve span from the segment-0 HopComplete record")
	}
}

func TestWriteTraceNonFinite(t *testing.T) {
	r := New(8)
	r.EventScheduled(math.Inf(1), 1)
	r.HopComplete(math.NaN(), 0, 0, math.Inf(1))
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatalf("non-finite records broke the export: %v", err)
	}
	decodeTrace(t, buf.Bytes())
}
