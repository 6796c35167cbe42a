package bus

import (
	"fmt"
	"math/bits"

	"github.com/busnet/busnet/internal/enum"
)

// ArbiterKind names an arbitration policy: what a segment's config
// carries, and what the fabric builds its Arbiter from. The zero value
// is RoundRobin.
type ArbiterKind int

const (
	// RoundRobin grants the bus cyclically starting after the last grantee.
	RoundRobin ArbiterKind = iota
	// FixedPriority always grants the lowest-index pending claimant.
	FixedPriority
	// WeightedRoundRobin cycles like RoundRobin but grants claimant i up
	// to its integer weight consecutive transactions per visit, so
	// saturated grant shares match the weight ratios. With all-ones
	// weights (the default when none are given) it is grant-for-grant
	// identical to RoundRobin.
	WeightedRoundRobin
)

// ParseArbiter maps an arbiter name (as produced by ArbiterKind.String)
// back to its kind. The empty string parses as RoundRobin.
func ParseArbiter(s string) (ArbiterKind, error) {
	switch s {
	case "", "round-robin":
		return RoundRobin, nil
	case "fixed-priority":
		return FixedPriority, nil
	case "weighted-round-robin":
		return WeightedRoundRobin, nil
	default:
		return 0, fmt.Errorf("bus: unknown arbiter %q", s)
	}
}

// String implements fmt.Stringer.
func (k ArbiterKind) String() string {
	switch k {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	case WeightedRoundRobin:
		return "weighted-round-robin"
	default:
		return fmt.Sprintf("ArbiterKind(%d)", int(k))
	}
}

// MarshalText renders the arbiter's canonical name — the same string
// ParseArbiter accepts — and rejects out-of-range kinds at encode time.
func (k ArbiterKind) MarshalText() ([]byte, error) {
	if _, err := ParseArbiter(k.String()); err != nil {
		return nil, err
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses exactly the names ParseArbiter accepts,
// including the empty-string RoundRobin default.
func (k *ArbiterKind) UnmarshalText(text []byte) error {
	return enum.UnmarshalText(k, text, ParseArbiter)
}

// Arbiter decides which claimant is granted the bus next. Pick is called
// only when at least one claimant has a pending request. Implementations
// must be deterministic — the same pending pattern and internal state
// must always yield the same grant — so simulation runs are reproducible.
type Arbiter interface {
	// Pick returns the index of the claimant to grant among n claimants.
	// pending is a bitset of at least (n+63)/64 words: claimant j waits
	// when bit j&63 of pending[j>>6] is set. Bits at or above n must be
	// clear, and at least one bit must be set. Pick returns a set bit.
	Pick(pending []uint64, n int) int
	// ScanSlots reports the claimant slots a one-by-one cyclic scan
	// would have probed across every Pick so far. Pick computes it from
	// each grant's distance rather than walking the slots, so the count
	// is a measure of the policy, not of the work done. It feeds
	// topo.Counters.ArbScanSlots.
	ScanSlots() uint64
}

// next returns the lowest pending claimant at index from or above, or
// -1 when there is none.
func next(pending []uint64, from int) int {
	w := from >> 6
	if w >= len(pending) {
		return -1
	}
	word := pending[w] &^ (1<<(from&63) - 1)
	for word == 0 {
		if w++; w == len(pending) {
			return -1
		}
		word = pending[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// wrap returns the lowest pending claimant, where a cyclic scan that
// found nothing from after+1 to n-1 lands, and the slots it probes:
// n-1-after before the wrap, i+1 after it. The cyclic arbiters inline
// the scan up to n-1 and call wrap only past it, so a grant that does
// not wrap costs no call.
func wrap(pending []uint64, after, n int) (int, uint64) {
	i := next(pending, 0)
	if i < 0 {
		panic("bus: Pick called with no pending request")
	}
	return i, uint64(n - after + i)
}

// RoundRobinArbiter grants the bus in cyclic order starting just past the
// last grantee, so every processor is at most n-1 grants away from
// service regardless of load pattern.
type RoundRobinArbiter struct {
	last    int    // index of the last grantee; the scan starts at last+1
	scanned uint64 // slots a one-by-one scan would have probed
}

// NewRoundRobin returns a round-robin arbiter for any processor count.
// The first grant goes to the lowest pending index.
func NewRoundRobin() *RoundRobinArbiter { return &RoundRobinArbiter{last: -1} }

// Pick grants the first pending claimant after the last grantee,
// wrapping past n-1.
func (a *RoundRobinArbiter) Pick(pending []uint64, n int) int {
	i := next(pending, a.last+1)
	probed := uint64(i - a.last)
	if i < 0 {
		i, probed = wrap(pending, a.last, n)
	}
	a.last = i
	a.scanned += probed
	return i
}

// Select is Pick walked slot by slot over a claimant vector, where
// pending[i] is true while claimant i waits: it shares Pick's state and
// makes the same grants and scan counts. The simulator calls Pick;
// Select remains for the benchmark's arbitration probe (bench/ladder.go)
// and as the reference the tests hold Pick to.
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

// ScanSlots implements Arbiter.
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
	scanned uint64 // slots a one-by-one scan would have probed
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

// Pick continues the current processor's window while it has credit and
// a pending request, one probed slot, and otherwise picks — exactly like
// round-robin — the next pending processor after it, opening a fresh
// window of its weight.
func (a *WeightedRoundRobinArbiter) Pick(pending []uint64, n int) int {
	if c := a.current; c >= 0 && a.left > 0 && pending[c>>6]&(1<<(c&63)) != 0 {
		a.scanned++
		a.left--
		return c
	}
	i := next(pending, a.current+1)
	probed := uint64(i - a.current)
	if i < 0 {
		i, probed = wrap(pending, a.current, n)
	}
	a.current = i
	a.left = a.weights[i] - 1
	a.scanned += probed
	return i
}

// ScanSlots implements Arbiter.
func (a *WeightedRoundRobinArbiter) ScanSlots() uint64 { return a.scanned }

// FixedPriorityArbiter always grants the lowest-index pending processor,
// modeling a daisy-chained priority line: processor 0 can starve the rest
// under saturation, which is exactly the behavior worth simulating.
type FixedPriorityArbiter struct {
	scanned uint64 // slots a one-by-one scan would have probed
}

// NewFixedPriority returns the fixed-priority arbiter.
func NewFixedPriority() *FixedPriorityArbiter { return &FixedPriorityArbiter{} }

// Pick returns the lowest pending index i, i+1 probed slots.
func (a *FixedPriorityArbiter) Pick(pending []uint64, _ int) int {
	i := next(pending, 0)
	if i < 0 {
		panic("bus: Pick called with no pending request")
	}
	a.scanned += uint64(i + 1)
	return i
}

// ScanSlots implements Arbiter.
func (a *FixedPriorityArbiter) ScanSlots() uint64 { return a.scanned }
