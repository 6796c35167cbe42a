// Package servdist turns the model's hard-coded exponential bus service
// time into a pluggable service-time distribution subsystem, the service
// counterpart of internal/workload. A Dist generates the successive
// service times of bus transactions; the bus model samples it once per
// dispatch, so the holding-time distribution of the fabric can be shaped
// independently of the arrival side.
//
// Four families cover the paper's exponential assumption and the regimes
// the SoC/NoC literature extends it to, every one normalized to mean
// 1/μ so swapping the shape at a fixed ServiceRate holds the offered
// load constant and moves only the variability:
//
//   - Exponential: the source paper's model and the default,
//     draw-for-draw identical to the pre-subsystem hard-coded
//     rng.Exp(ServiceRate). Squared coefficient of variation (SCV) 1.
//   - Deterministic: every transaction takes exactly 1/μ — the
//     fixed-width bus transfer of real hardware. Draw-free; SCV 0.
//   - Erlang-k: the sum of k exponential stages of rate k·μ, the
//     classical sub-exponential interpolation between deterministic
//     (k → ∞) and exponential (k = 1). SCV 1/k.
//   - Hyperexponential (H2): a two-branch mixture of exponentials in the
//     balanced-means parameterization, pinned by its SCV ≥ 1 — the
//     bursty, heavy-tailed end where a few long transfers dominate.
//
// Dists draw variates from the *sim.RNG passed to Sample — the single
// per-run stream — so a run's entire trajectory remains a deterministic
// function of (seed, stream) and the exponential default reproduces the
// previous behavior bit for bit.
package servdist

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/enum"
	"github.com/busnet/busnet/internal/sim"
)

// Kind names a service-time family. The empty string normalizes to
// KindExponential so zero-value Specs keep the paper's default model.
type Kind string

// Kind names accepted by Spec.Kind.
const (
	KindExponential   Kind = "exponential"
	KindDeterministic Kind = "deterministic"
	KindErlang        Kind = "erlang"
	KindHyperexp      Kind = "hyperexp"
)

// ParseKind maps a service-family name to its canonical Kind. The empty
// string parses as KindExponential, matching Spec.Normalized.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "":
		return KindExponential, nil
	case KindExponential, KindDeterministic, KindErlang, KindHyperexp:
		return Kind(s), nil
	default:
		return "", fmt.Errorf("servdist: unknown service kind %q", s)
	}
}

// String returns the kind's name, empty for the zero value (which every
// consumer normalizes to KindExponential).
func (k Kind) String() string { return string(k) }

// MarshalText renders the canonical name (the zero value marshals as
// "exponential") and rejects unknown kinds at encode time.
func (k Kind) MarshalText() ([]byte, error) { return enum.MarshalText(k, ParseKind) }

// UnmarshalText parses exactly the names ParseKind accepts.
func (k *Kind) UnmarshalText(text []byte) error { return enum.UnmarshalText(k, text, ParseKind) }

// Dist generates successive service times, all with mean 1/μ for the
// rate μ it was built with. Sample returns one service duration, > 0 and
// finite, drawing any randomness it needs from rng; implementations must
// be deterministic given the rng's draws so simulation runs stay
// reproducible. A Dist is stateless per draw and may be shared across
// the buses of one run, but not across concurrent runs' RNGs.
type Dist interface {
	// Sample returns the next service time.
	Sample(rng *sim.RNG) float64
	// Mean returns the distribution mean 1/μ.
	Mean() float64
	// SCV returns the squared coefficient of variation Var/Mean², the
	// variability knob the Pollaczek–Khinchine formula consumes.
	SCV() float64
}

// Spec is the serializable description of a service-time shape — the
// value type public configs embed. It is comparable and round-trips
// through JSON. Kind selects the family; Shape parameterizes only
// erlang (the stage count k ≥ 1) and SCV only hyperexp (the squared
// coefficient of variation, ≥ 1); both must be zero elsewhere (Validate
// rejects stray parameters so config typos cannot silently change the
// model). Every family takes its mean 1/μ from the configuration's
// service rate, passed to Validate/NewDist, so sweeping ServiceRate
// sweeps the load while the Spec moves only the variability.
type Spec struct {
	Kind Kind `json:"kind,omitempty"`

	// Erlang: number of exponential stages k ≥ 1 (k = 1 is exponential).
	Shape int `json:"shape,omitempty"`

	// Hyperexp: squared coefficient of variation c² ≥ 1 (c² = 1 is
	// statistically exponential), realized as the balanced-means
	// two-branch mixture.
	SCV float64 `json:"scv,omitempty"`
}

// Normalized returns the spec with an empty Kind resolved to
// KindExponential, so every layer echoes canonical names.
func (s Spec) Normalized() Spec {
	if s.Kind == "" {
		s.Kind = KindExponential
	}
	return s
}

// posFinite reports whether x is a usable rate or duration: > 0, finite.
func posFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Validate reports the first error in the spec given the configuration's
// service rate μ, or nil. Every family scales by μ, so it must be
// positive and finite for all of them.
func (s Spec) Validate(mu float64) error {
	kind := s.Normalized().Kind
	if !posFinite(mu) {
		return fmt.Errorf("servdist: %s service needs a service rate, have %v", kind, mu)
	}
	switch kind {
	case KindExponential, KindDeterministic:
		if s.Shape != 0 {
			return fmt.Errorf("servdist: shape = %d is not a parameter of %s service", s.Shape, kind)
		}
		if s.SCV != 0 {
			return fmt.Errorf("servdist: scv = %v is not a parameter of %s service", s.SCV, kind)
		}
		return nil
	case KindErlang:
		if s.Shape < 1 {
			return fmt.Errorf("servdist: erlang shape = %d, need ≥ 1", s.Shape)
		}
		if s.SCV != 0 {
			return fmt.Errorf("servdist: scv = %v is not a parameter of erlang service", s.SCV)
		}
		return nil
	case KindHyperexp:
		if s.Shape != 0 {
			return fmt.Errorf("servdist: shape = %d is not a parameter of hyperexp service", s.Shape)
		}
		if math.IsNaN(s.SCV) || s.SCV < 1 || math.IsInf(s.SCV, 1) {
			return fmt.Errorf("servdist: hyperexp scv = %v, need finite and ≥ 1", s.SCV)
		}
		return nil
	default:
		return fmt.Errorf("servdist: unknown service kind %q", s.Kind)
	}
}

// SquaredCV returns the SCV the spec's family realizes — the exact value
// the Pollaczek–Khinchine mean-wait formula consumes: 1 for exponential,
// 0 for deterministic, 1/k for Erlang-k, and the spec's own SCV for
// hyperexp. Unknown kinds return 1 (the exponential default); Validate
// rejects them first on every construction path.
func (s Spec) SquaredCV() float64 {
	switch s.Normalized().Kind {
	case KindDeterministic:
		return 0
	case KindErlang:
		return 1 / float64(s.Shape)
	case KindHyperexp:
		return s.SCV
	default:
		return 1
	}
}

// Detail renders the kind-specific parameters as a compact "key=value"
// string for CSV provenance columns. Families parameterized solely by
// the service rate (exponential, deterministic) return "" — their rate
// already has its own column.
func (s Spec) Detail() string {
	switch s.Normalized().Kind {
	case KindErlang:
		return fmt.Sprintf("shape=%d", s.Shape)
	case KindHyperexp:
		return fmt.Sprintf("scv=%v", s.SCV)
	default:
		return ""
	}
}

// NewDist validates the spec and builds the distribution for service
// rate μ (mean 1/μ).
func (s Spec) NewDist(mu float64) (Dist, error) {
	if err := s.Validate(mu); err != nil {
		return nil, err
	}
	switch s.Normalized().Kind {
	case KindExponential:
		return exponential{rate: mu}, nil
	case KindDeterministic:
		return deterministic{d: 1 / mu}, nil
	case KindErlang:
		return erlang{k: s.Shape, stageRate: float64(s.Shape) * mu}, nil
	default: // KindHyperexp
		// Balanced-means H2: branch probabilities p and 1−p chosen so each
		// branch carries half the mean, p = (1 + √((c²−1)/(c²+1)))/2 with
		// branch rates 2pμ and 2(1−p)μ. This is the standard one-knob H2:
		// mean is exactly 1/μ and the realized SCV exactly c² (the mixture's
		// second moment is (1/p + 1/(1−p))/(2μ²) = (c²+1)/μ²). c² = 1
		// collapses both branches to rate μ — statistically exponential.
		p := (1 + math.Sqrt((s.SCV-1)/(s.SCV+1))) / 2
		return hyperexp{p: p, rate0: 2 * p * mu, rate1: 2 * (1 - p) * mu, scv: s.SCV, mean: 1 / mu}, nil
	}
}

// exponential draws one Exp variate per service — the exact draw
// sequence of the pre-servdist model.
type exponential struct{ rate float64 }

func (d exponential) Sample(rng *sim.RNG) float64 { return rng.Exp(d.rate) }
func (d exponential) Mean() float64               { return 1 / d.rate }
func (d exponential) SCV() float64                { return 1 }

// deterministic takes exactly the mean every time and consumes no
// randomness — the fixed-width bus transfer.
type deterministic struct{ d float64 }

func (d deterministic) Sample(*sim.RNG) float64 { return d.d }
func (d deterministic) Mean() float64           { return d.d }
func (d deterministic) SCV() float64            { return 0 }

// erlang sums k exponential stages of rate k·μ: mean 1/μ, SCV 1/k.
// k draws per service.
type erlang struct {
	k         int
	stageRate float64
}

func (d erlang) Sample(rng *sim.RNG) float64 {
	t := 0.0
	for i := 0; i < d.k; i++ {
		t += rng.Exp(d.stageRate)
	}
	return t
}
func (d erlang) Mean() float64 { return float64(d.k) / d.stageRate }
func (d erlang) SCV() float64  { return 1 / float64(d.k) }

// hyperexp mixes two exponential branches: one uniform draw picks the
// branch, one Exp draw the duration.
type hyperexp struct {
	p            float64 // probability of branch 0
	rate0, rate1 float64
	scv          float64
	mean         float64
}

func (d hyperexp) Sample(rng *sim.RNG) float64 {
	if rng.Uniform() < d.p {
		return rng.Exp(d.rate0)
	}
	return rng.Exp(d.rate1)
}
func (d hyperexp) Mean() float64 { return d.mean }
func (d hyperexp) SCV() float64  { return d.scv }
