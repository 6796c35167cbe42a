package busnet

import "github.com/busnet/busnet/internal/bus"

// ArbiterKind names a bus arbitration policy. It is an int-backed enum
// with String and JSON MarshalText/UnmarshalText: marshaling renders
// the canonical name and rejects out-of-range kinds on both encode and
// decode.
type ArbiterKind = bus.ArbiterKind

// Arbiter kinds, named in Config.Arbiter and Node.Arbiter by their
// String form. The empty string normalizes to RoundRobin.
const (
	// RoundRobin grants the bus cyclically starting after the last grantee.
	RoundRobin = bus.RoundRobin
	// FixedPriority always grants the lowest-index pending processor.
	FixedPriority = bus.FixedPriority
	// WeightedRoundRobin cycles like RoundRobin but grants processor i up
	// to its integer weight (Config.Weights) consecutive transactions per
	// visit, so saturated grant shares match the weight ratios. With
	// all-ones weights (the default when Config.Weights is empty) it is
	// grant-for-grant identical to RoundRobin.
	WeightedRoundRobin = bus.WeightedRoundRobin
)

// ParseArbiter maps an arbiter name (as produced by ArbiterKind.String)
// back to its kind. The empty string parses as RoundRobin.
func ParseArbiter(s string) (ArbiterKind, error) { return bus.ParseArbiter(s) }

// Infinite marks an unbounded buffer in Config.BufferCap, Node.BufferCap
// and Link.Buffer.
const Infinite = bus.Infinite
