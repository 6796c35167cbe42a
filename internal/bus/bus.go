// Package bus holds the arbitration policies of a multiplexed bus —
// round-robin, fixed priority, weighted round-robin — with the kind
// that names each in a configuration, and the source
// paper's two station-interface regimes: unbuffered, where a station
// blocks from the moment it issues a bus request until it has been
// served, and buffered, where requests queue at the station's bus
// interface (finite or unbounded capacity) and the station keeps
// computing. internal/topo simulates both, on one bus segment or many.
package bus

import "fmt"

// Mode selects the paper's two regimes.
type Mode int

const (
	// Unbuffered blocks the issuing station until its request completes.
	Unbuffered Mode = iota
	// Buffered queues requests at the bus interface so the station can
	// continue thinking, up to a finite or Infinite capacity.
	Buffered
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Unbuffered:
		return "unbuffered"
	case Buffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Infinite marks an unbounded buffer.
const Infinite = -1
