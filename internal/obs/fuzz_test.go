package obs

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// FuzzTraceExport drives a small recorder with an arbitrary
// byte-derived callback sequence — including non-finite times, negative
// indices, ring wrap, and sampling — and requires the exporter to emit
// structurally valid Chrome trace JSON every time. The exporter's
// output is consumed by external viewers, so "always valid JSON" is the
// invariant regardless of what a buggy or adversarial model feeds the
// probes.
func FuzzTraceExport(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	seed := make([]byte, 48)
	binary.LittleEndian.PutUint64(seed, math.Float64bits(math.Inf(1)))
	binary.LittleEndian.PutUint64(seed[8:], math.Float64bits(math.NaN()))
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := New(16)
		r.Sample(KindEventFired, 2)
		// Each 12-byte chunk is one callback: kind selector, a float64
		// time, an int payload reused for every argument slot.
		for len(data) >= 12 {
			kind := int(data[0]) % int(numKinds)
			tm := math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))
			n := int(int16(binary.LittleEndian.Uint16(data[9:11]))) // signed, small
			data = data[12:]
			switch Kind(kind) {
			case KindEventScheduled:
				r.EventScheduled(tm, tm)
			case KindEventFired:
				r.EventFired(tm)
			case KindHopGrant:
				r.HopGrant(tm, n, n, n, tm)
			case KindHopStall:
				r.HopStall(tm, n, n)
			case KindHopComplete:
				r.HopComplete(tm, n, n, tm)
			case KindBridgeEnqueue:
				r.BridgeEnqueue(tm, n, n)
			case KindBridgeBlock:
				r.BridgeBlock(tm, n, n, n)
			case KindBridgeRelease:
				r.BridgeRelease(tm, n, n, n, tm)
			}
		}
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		decodeTrace(t, buf.Bytes())
	})
}
