package busnet

import (
	"fmt"

	"github.com/busnet/busnet/internal/enum"
	"github.com/busnet/busnet/internal/fluid"
	"github.com/busnet/busnet/internal/topo"
)

// Backend names one of the three ways the repo can evaluate an
// operating point: discrete-event simulation ("sim", the default —
// exact dynamics, cost O(events)), the exact/approximate closed forms
// ("analytic"), or the mean-field fluid solver ("fluid" — cost O(1) in
// the number of processors, asymptotically exact as N → ∞). Evaluate
// documents each backend's domain. The sweep subpackage and the CLI
// select backends by this name.
type Backend string

const (
	// BackendSim is the discrete-event simulator — the ground truth at
	// any N it can feasibly run (see MaxSimProcessors).
	BackendSim Backend = "sim"
	// BackendAnalytic evaluates the closed forms, no simulation.
	BackendAnalytic Backend = "analytic"
	// BackendFluid evaluates the mean-field model, no simulation — the
	// only backend whose cost is O(1) in N.
	BackendFluid Backend = "fluid"
)

// String returns the backend's name, empty for the zero value (which
// ParseBackend resolves to BackendSim).
func (b Backend) String() string { return string(b) }

// MarshalText renders the canonical backend name (the zero value
// marshals as "sim") and rejects unknown backends at encode time.
func (b Backend) MarshalText() ([]byte, error) { return enum.MarshalText(b, ParseBackend) }

// UnmarshalText parses exactly the names ParseBackend accepts.
func (b *Backend) UnmarshalText(text []byte) error { return enum.UnmarshalText(b, text, ParseBackend) }

// ParseBackend maps a backend name to its Backend; the empty string
// parses as BackendSim so zero-valued specs keep today's behavior.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendSim:
		return BackendSim, nil
	case BackendAnalytic:
		return BackendAnalytic, nil
	case BackendFluid:
		return BackendFluid, nil
	default:
		return "", fmt.Errorf("busnet: unknown backend %q (want %q, %q, or %q)",
			s, BackendSim, BackendAnalytic, BackendFluid)
	}
}

// FluidPrediction re-exports the fluid package's mean-field quantities
// so callers never import internal packages. Alongside the fields
// shared with Prediction it reports Blocked, the stationary fraction of
// stations blocked at the fabric (unbuffered) or stalled at a full
// interface (buffered-finite).
type FluidPrediction = fluid.Prediction

// fluidPredict is the mean-field backend behind Evaluate: the
// (fluid-limit) steady-state prediction for cfg, where occupancy
// fractions of the station population evolve by mass-balance ODEs whose
// cost is O(1) in Processors, so curves at N = 10⁶ cost microseconds
// where simulation would cost millions of events. The model is
// asymptotically exact as N → ∞ with the per-station capacity m/N held
// fixed — errors shrink like O(1/N) away from the critical load,
// O(1/√N) at it; see docs/fluid.md for the derivation and a worked
// fluid-vs-DES example.
//
// Its domain is validated exactly like predict's: the mean-field
// balance assumes Poisson arrivals and exponential service, and the
// symmetric capacity-splitting drain term models an arbiter that treats
// stations identically — so non-Poisson traffic, non-exponential
// service, the fixed-priority arbiter, and weighted round-robin with
// non-uniform weights are all refused rather than silently mismodeled.
// Buffered mode requires a finite BufferCap: an infinite buffer has no
// finite occupancy state space, and its stable regime is already
// covered exactly by the analytic backend's Erlang-C forms.
func fluidPredict(cfg Config) (FluidPrediction, error) {
	var seg [1]topo.SegmentConfig
	if err := cfg.lowered(&topo.Config{Segments: seg[:]}); err != nil {
		return FluidPrediction{}, err
	}
	if kind := cfg.Traffic.Kind; kind != TrafficPoisson {
		return FluidPrediction{}, fmt.Errorf("busnet: no fluid model for %s traffic — the mean-field balance assumes Poisson arrivals", kind)
	}
	if kind := cfg.Service.Kind; kind != ServiceExponential {
		return FluidPrediction{}, fmt.Errorf("busnet: no fluid model for %s service — the mean-field drain assumes exponential service", kind)
	}
	switch seg[0].Arbiter {
	case FixedPriority:
		return FluidPrediction{}, fmt.Errorf("busnet: no fluid model for the fixed-priority arbiter — the mean-field drain splits capacity symmetrically across stations")
	case WeightedRoundRobin:
		if !uniformWeights(seg[0].Weights) {
			return FluidPrediction{}, fmt.Errorf("busnet: no fluid model for non-uniform weighted-round-robin weights %q — the mean-field drain splits capacity symmetrically across stations", cfg.Weights)
		}
	}
	if cfg.Mode == ModeBuffered {
		if cfg.BufferCap == Infinite {
			return FluidPrediction{}, fmt.Errorf("busnet: no fluid model for infinite buffers — the analytic backend's M/M/m (Erlang-C) form is exact there")
		}
		return fluid.BufferedFinite(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate, cfg.BufferCap)
	}
	return fluid.Unbuffered(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate)
}

// uniformWeights reports whether a parsed weight vector is equivalent
// to all-ones round robin (nil or all entries equal): the only
// weighted-round-robin configuration the symmetric fluid drain models.
func uniformWeights(ws []int) bool {
	for _, w := range ws {
		if w != ws[0] {
			return false
		}
	}
	return true
}
