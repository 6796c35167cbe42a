package topo

// Probe receives fabric-level callbacks — the per-hop arbitration
// lifecycle plus the bridge events (enqueue, blocking-after-service,
// release). Nil (the default) disables the seam at one predicted branch
// per hook point; the steady-state alloc locks and the probe-disabled
// benchmarks pin that the disabled path stays free.
//
// Method names carry Hop/Bridge prefixes so a single recorder type can
// structurally implement sim.Probe and topo.Probe at once without the
// packages importing each other.
//
// The contract mirrors sim.Probe: callbacks run synchronously inside
// engine events, must not allocate if the zero-allocation contract is to
// survive with the probe attached, must not mutate the fabric, and
// arrive in a deterministic order for a fixed (Config, Seed, Stream).
type Probe interface {
	// HopGrant fires when segment seg dispatches claimant j's request
	// onto bus b; wait is the request's time in that claimant queue.
	HopGrant(now float64, seg, claimant, b int, wait float64)
	// HopStall fires when a buffered-finite station interface is full and
	// the issuing station blocks holding its request.
	HopStall(now float64, seg, station int)
	// HopComplete fires when a request's visit to segment seg ends and
	// bus b frees; busyFor is the bus's full occupancy span — service
	// plus any blocked-after-service time.
	HopComplete(now float64, seg, b int, busyFor float64)
	// BridgeEnqueue fires after a request crosses link and lands in the
	// downstream claimant queue; qlen is the queue length including it.
	BridgeEnqueue(now float64, link, qlen int)
	// BridgeBlock fires when segment seg's bus b finishes service into a
	// full bridge and blocks holding the request.
	BridgeBlock(now float64, link, seg, b int)
	// BridgeRelease fires when a freed slot pulls the oldest blocked bus
	// (segment seg, bus b) through link; blockedFor is its blocked span.
	BridgeRelease(now float64, link, seg, b int, blockedFor float64)
}

// Counters is the fabric's deterministic self-measurement, mirroring
// sim.EngineCounters one layer up: totals over the whole run (not
// warmup-truncated), bit-identical for equal (Config, Seed, Stream)
// with or without a probe attached.
type Counters struct {
	// Stalls counts requests held at a full buffered-finite station
	// interface, summed across segments.
	Stalls uint64 `json:"stalls"`
	// BridgeCrossings counts requests handed through any bridge into a
	// downstream claimant queue.
	BridgeCrossings uint64 `json:"bridge_crossings"`
	// BridgeBlocks counts blocking-after-service events: a bus finishing
	// into a full bridge and holding its request.
	BridgeBlocks uint64 `json:"bridge_blocks"`
	// ArbScanSlots sums every segment arbiter's ScanSlots: the claimant
	// slots a one-by-one cyclic scan would have probed to reach each
	// grant. The arbiters compute it from each grant's distance rather
	// than walking the slots.
	ArbScanSlots uint64 `json:"arb_scan_slots"`
}

// SetProbe attaches p to the fabric's hook points, or detaches with
// nil. Attach before Start.
func (f *Fabric) SetProbe(p Probe) {
	for k := range f.segs {
		f.segs[k].probe = p
	}
}

// Counters returns the fabric's deterministic counters as of now.
func (f *Fabric) Counters() Counters {
	c := Counters{
		Stalls:          f.stalls,
		BridgeCrossings: f.crossings,
		BridgeBlocks:    f.blocks,
	}
	for k := range f.segs {
		c.ArbScanSlots += f.segs[k].arbiter.ScanSlots()
	}
	return c
}
