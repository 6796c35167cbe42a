package bus

import "fmt"

// Arbiter decides which processor is granted the bus next. Select is
// called only when at least one processor has a pending request; pending
// is indexed by processor and true where a request waits. Implementations
// must be deterministic — the same pending pattern and internal state must
// always yield the same grant — so simulation runs are reproducible.
type Arbiter interface {
	// Select returns the index of the processor to grant. It must return
	// an index i with pending[i] == true.
	Select(pending []bool) int
	// Name identifies the policy in results and logs.
	Name() string
}

// RoundRobinArbiter grants the bus in cyclic order starting just past the
// last grantee, so every processor is at most n-1 grants away from
// service regardless of load pattern.
type RoundRobinArbiter struct {
	last    int    // index of the last grantee; start scanning at last+1
	scanned uint64 // total slots probed across all Select calls
}

// NewRoundRobin returns a round-robin arbiter for any processor count.
// The first grant goes to the lowest pending index.
func NewRoundRobin() *RoundRobinArbiter { return &RoundRobinArbiter{last: -1} }

// Select scans cyclically from the slot after the last grantee. The
// cycle is two straight array sweeps rather than a modular walk: this
// sits on the dispatch hot path, and the per-probe integer division of
// `(last+off) % n` costs more than the probe itself.
func (a *RoundRobinArbiter) Select(pending []bool) int {
	for i := a.last + 1; i < len(pending); i++ {
		a.scanned++
		if pending[i] {
			a.last = i
			return i
		}
	}
	for i := 0; i <= a.last; i++ {
		a.scanned++
		if pending[i] {
			a.last = i
			return i
		}
	}
	panic("bus: Select called with no pending request")
}

// Name implements Arbiter.
func (a *RoundRobinArbiter) Name() string { return "round-robin" }

// ScanSlots reports the total slots probed, feeding Counters.ArbScanSlots.
func (a *RoundRobinArbiter) ScanSlots() uint64 { return a.scanned }

// WeightedRoundRobinArbiter generalizes round-robin with per-processor
// integer weights: cycling through the processors in round-robin order,
// it grants processor i up to weights[i] consecutive transactions before
// advancing. Over any saturated interval the grant shares converge to
// the weight ratios, and with all weights 1 the arbiter is
// grant-for-grant identical to RoundRobinArbiter. It is work-conserving:
// an unfinished grant window is forfeited the moment its owner has
// nothing pending, so the bus never idles while any processor waits.
type WeightedRoundRobinArbiter struct {
	weights []int
	current int    // processor holding the grant window; -1 before the first grant
	left    int    // grants remaining in current's window
	scanned uint64 // total slots probed across all Select calls
}

// NewWeightedRoundRobin returns a weighted round-robin arbiter. It
// requires one weight ≥ 1 per processor; the weight slice is copied in.
func NewWeightedRoundRobin(weights []int) (*WeightedRoundRobinArbiter, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("bus: weighted round-robin needs at least one weight")
	}
	for i, w := range weights {
		if w < 1 {
			return nil, fmt.Errorf("bus: weight[%d] = %d, need ≥ 1", i, w)
		}
	}
	return &WeightedRoundRobinArbiter{
		weights: append([]int(nil), weights...),
		current: -1,
	}, nil
}

// Select continues the current processor's window while it has credit
// and a pending request, and otherwise scans cyclically — exactly like
// round-robin — for the next pending processor, opening a fresh window
// of its weight.
func (a *WeightedRoundRobinArbiter) Select(pending []bool) int {
	if a.current >= 0 && a.left > 0 && pending[a.current] {
		a.scanned++
		a.left--
		return a.current
	}
	for i := a.current + 1; i < len(pending); i++ {
		a.scanned++
		if pending[i] {
			a.current = i
			a.left = a.weights[i] - 1
			return i
		}
	}
	for i := 0; i <= a.current; i++ {
		a.scanned++
		if pending[i] {
			a.current = i
			a.left = a.weights[i] - 1
			return i
		}
	}
	panic("bus: Select called with no pending request")
}

// Name implements Arbiter.
func (a *WeightedRoundRobinArbiter) Name() string { return "weighted-round-robin" }

// ScanSlots reports the total slots probed, feeding Counters.ArbScanSlots.
func (a *WeightedRoundRobinArbiter) ScanSlots() uint64 { return a.scanned }

// Stations returns the number of claimants the weight vector covers;
// topo's Config.Validate checks it against the segment's claimant count.
func (a *WeightedRoundRobinArbiter) Stations() int { return len(a.weights) }

// FixedPriorityArbiter always grants the lowest-index pending processor,
// modeling a daisy-chained priority line: processor 0 can starve the rest
// under saturation, which is exactly the behavior worth simulating.
type FixedPriorityArbiter struct {
	scanned uint64 // total slots probed across all Select calls
}

// NewFixedPriority returns the fixed-priority arbiter.
func NewFixedPriority() *FixedPriorityArbiter { return &FixedPriorityArbiter{} }

// Select returns the lowest pending index.
func (a *FixedPriorityArbiter) Select(pending []bool) int {
	for i, p := range pending {
		a.scanned++
		if p {
			return i
		}
	}
	panic("bus: Select called with no pending request")
}

// Name implements Arbiter.
func (a *FixedPriorityArbiter) Name() string { return "fixed-priority" }

// ScanSlots reports the total slots probed, feeding Counters.ArbScanSlots.
func (a *FixedPriorityArbiter) ScanSlots() uint64 { return a.scanned }
