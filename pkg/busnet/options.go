package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/enum"
)

// ArbiterKind names a bus arbitration policy.
type ArbiterKind int

const (
	// RoundRobin grants the bus cyclically starting after the last grantee.
	RoundRobin ArbiterKind = iota
	// FixedPriority always grants the lowest-index pending processor.
	FixedPriority
	// WeightedRoundRobin cycles like RoundRobin but grants processor i up
	// to its integer weight (Config.Weights) consecutive transactions per
	// visit, so saturated grant shares match the weight ratios. With
	// all-ones weights (the default when Config.Weights is empty) it is
	// grant-for-grant identical to RoundRobin.
	WeightedRoundRobin
)

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

// Infinite marks an unbounded buffer in Config.BufferCap, Node.BufferCap
// and Link.Buffer.
const Infinite = bus.Infinite
