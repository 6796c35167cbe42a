// Package obs is the repo's flight recorder: a fixed-capacity ring of
// simulation events captured through the probe seams of internal/sim
// and internal/topo, exportable as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
//
// Recorder implements both probe interfaces structurally — sim.Probe
// and topo.Probe name their hooks so the signatures never collide —
// which is what lets this package sit below both with no imports and no
// cycles. One recorder can therefore be attached to an engine and a
// fabric simultaneously and interleave their events on a single
// timeline.
//
// The append path is allocation-free by construction: the ring is
// preallocated at New, records are fixed-size values, and the per-kind
// sampling state lives in fixed arrays. Attaching a recorder keeps a
// zero-allocation simulation zero-allocation; the alloc tests pin this.
// When the ring is full the oldest record is overwritten (last-K
// semantics), and Overwritten reports how many were lost.
package obs

// Kind tags a Record with the probe hook that produced it.
type Kind uint8

const (
	// Engine lifecycle (sim.Probe).
	KindEventScheduled Kind = iota
	KindEventFired
	// Fabric hops and bridges (topo.Probe); a flat run is a fabric of
	// one segment.
	KindHopGrant
	KindHopStall
	KindHopComplete
	KindBridgeEnqueue
	KindBridgeBlock
	KindBridgeRelease

	numKinds
)

var kindNames = [numKinds]string{
	"event-scheduled", "event-fired",
	"hop-grant", "hop-stall", "hop-complete",
	"bridge-enqueue", "bridge-block", "bridge-release",
}

// String returns the kind's stable wire name (used in trace categories).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Record is one captured probe callback: a fixed-size value so the ring
// is a flat array with no per-record indirection. T is the simulation
// clock at capture; the meaning of A/B/C/D depends on Kind:
//
//	EventScheduled   D=fire time
//	EventFired       —
//	HopGrant         A=segment B=claimant C=bus D=wait
//	HopStall         A=segment B=station
//	HopComplete      A=segment B=bus          D=busyFor
//	BridgeEnqueue    A=link    B=queue length
//	BridgeBlock      A=link    B=segment C=bus
//	BridgeRelease    A=link    B=segment C=bus D=blockedFor
type Record struct {
	Kind    Kind
	T       float64
	A, B, C int
	D       float64
	Seq     uint64 // capture order across all kinds, 0-based
}

// Recorder is the flight recorder. Not safe for concurrent use — it is
// designed to be attached to one single-threaded simulation run.
type Recorder struct {
	ring []Record
	head int // next write slot
	n    int // records held, ≤ len(ring)

	seq         uint64 // records written (post-sampling)
	overwritten uint64 // records lost to ring wrap

	// Per-kind sampling: keep 1 in every[k] callbacks (0 and 1 both mean
	// keep all). tick counts callbacks per kind since the last keep.
	every [numKinds]uint64
	tick  [numKinds]uint64
	seen  [numKinds]uint64 // callbacks offered, pre-sampling
}

// New returns a recorder holding the last capacity records; capacity
// < 1 is clamped to 1. All kinds start unsampled (every callback kept).
func New(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Record, capacity)}
}

// Sample keeps only 1 in every callbacks of kind k (0 or 1 restores
// keep-all). Sampling applies at capture, so a sampled-out callback
// costs a counter increment and never touches the ring.
func (r *Recorder) Sample(k Kind, every uint64) {
	if int(k) < int(numKinds) {
		r.every[k] = every
		r.tick[k] = 0
	}
}

// Len returns the number of records currently held.
func (r *Recorder) Len() int { return r.n }

// Cap returns the ring capacity.
func (r *Recorder) Cap() int { return len(r.ring) }

// Overwritten returns how many kept records were lost to ring wrap.
func (r *Recorder) Overwritten() uint64 { return r.overwritten }

// Seen returns how many kind-k callbacks arrived, before sampling.
func (r *Recorder) Seen(k Kind) uint64 {
	if int(k) < int(numKinds) {
		return r.seen[k]
	}
	return 0
}

// Reset empties the ring and zeroes the capture counters, keeping the
// capacity and sampling configuration.
func (r *Recorder) Reset() {
	r.head, r.n = 0, 0
	r.seq, r.overwritten = 0, 0
	r.tick = [numKinds]uint64{}
	r.seen = [numKinds]uint64{}
}

// Records returns the held records oldest-first as a fresh slice. It
// allocates; call it after the run, not from inside a probe.
func (r *Recorder) Records() []Record {
	out := make([]Record, r.n)
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(start+i)%len(r.ring)]
	}
	return out
}

// add is the single capture path: sampling decision, then one store
// into the preallocated ring. No allocation, no branches beyond the
// sampling check and wrap bookkeeping.
func (r *Recorder) add(k Kind, t float64, a, b, c int, d float64) {
	r.seen[k]++
	if e := r.every[k]; e > 1 {
		r.tick[k]++
		if r.tick[k] < e {
			return
		}
		r.tick[k] = 0
	}
	if r.n == len(r.ring) {
		r.overwritten++
	} else {
		r.n++
	}
	r.ring[r.head] = Record{Kind: k, T: t, A: a, B: b, C: c, D: d, Seq: r.seq}
	r.seq++
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
}

// sim.Probe implementation.

// EventScheduled implements sim.Probe.
func (r *Recorder) EventScheduled(t, now float64) {
	r.add(KindEventScheduled, now, 0, 0, 0, t)
}

// EventFired implements sim.Probe.
func (r *Recorder) EventFired(now float64) {
	r.add(KindEventFired, now, 0, 0, 0, 0)
}

// topo.Probe implementation.

// HopGrant implements topo.Probe.
func (r *Recorder) HopGrant(now float64, seg, claimant, b int, wait float64) {
	r.add(KindHopGrant, now, seg, claimant, b, wait)
}

// HopStall implements topo.Probe.
func (r *Recorder) HopStall(now float64, seg, station int) {
	r.add(KindHopStall, now, seg, station, 0, 0)
}

// HopComplete implements topo.Probe.
func (r *Recorder) HopComplete(now float64, seg, b int, busyFor float64) {
	r.add(KindHopComplete, now, seg, b, 0, busyFor)
}

// BridgeEnqueue implements topo.Probe.
func (r *Recorder) BridgeEnqueue(now float64, link, qlen int) {
	r.add(KindBridgeEnqueue, now, link, qlen, 0, 0)
}

// BridgeBlock implements topo.Probe.
func (r *Recorder) BridgeBlock(now float64, link, seg, b int) {
	r.add(KindBridgeBlock, now, link, seg, b, 0)
}

// BridgeRelease implements topo.Probe.
func (r *Recorder) BridgeRelease(now float64, link, seg, b int, blockedFor float64) {
	r.add(KindBridgeRelease, now, link, seg, b, blockedFor)
}
