// Package workload turns the model's hard-coded exponential think time
// into a pluggable traffic-source subsystem. A Source generates the
// successive think (inter-arrival) times of one station; the bus model
// consults it every time a processor re-enters the thinking state, so
// the request-generation process of each station can be shaped
// independently of the bus itself.
//
// Four shapes cover the paper's Poisson assumption and the bursty /
// synchronous regimes the NoC literature extends it to:
//
//   - Poisson: exponential inter-arrivals at the base rate — the source
//     paper's model and the default. Draw-for-draw identical to the
//     pre-subsystem hard-coded behavior.
//   - MMPP2: a 2-state Markov-modulated Poisson process. Arrivals are
//     Poisson at Rate0 or Rate1 depending on a hidden 2-state chain with
//     transition rates Switch01 and Switch10; with Rate0 == Rate1 it
//     degenerates to Poisson at that rate.
//   - OnOff: burst/idle traffic — Poisson arrivals at BurstRate during
//     exponentially distributed ON periods, silence during OFF periods.
//     DutyCycle fixes the ON fraction and CycleTime the mean ON+OFF
//     cycle length; the long-run mean rate is BurstRate·DutyCycle.
//   - Deterministic: fixed inter-arrival 1/rate after a uniform random
//     initial phase (the stationary periodic process — without the phase,
//     every station of a run would fire in lockstep and measure the
//     alignment artifact rather than the shape). The paper's synchronous
//     limit; draw-free after the one phase draw.
//
// Modulated sources (MMPP2, OnOff) evolve their hidden state in
// think-time: the chain advances only across the intervals the source
// generates, which matches the model — a station produces no requests
// while it is blocked or its request is in service, so only the thinking
// process is shaped. The initial hidden state is drawn once from the
// chain's stationary distribution so the measured interval starts in
// steady state.
//
// Sources draw variates from the *sim.RNG passed to Next — the single
// per-run stream — so a run's entire trajectory remains a deterministic
// function of (seed, stream) and the Poisson default reproduces the
// previous behavior bit for bit.
package workload

import (
	"fmt"
	"math"

	"github.com/busnet/busnet/internal/enum"
	"github.com/busnet/busnet/internal/sim"
)

// Kind names a traffic shape. The empty string normalizes to
// KindPoisson so zero-value Specs keep the paper's default model.
type Kind string

// Kind names accepted by Spec.Kind.
const (
	KindPoisson       Kind = "poisson"
	KindMMPP2         Kind = "mmpp2"
	KindOnOff         Kind = "onoff"
	KindDeterministic Kind = "deterministic"
)

// ParseKind maps a traffic-shape name to its canonical Kind. The empty
// string parses as KindPoisson, matching Spec.Normalized.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case "":
		return KindPoisson, nil
	case KindPoisson, KindMMPP2, KindOnOff, KindDeterministic:
		return Kind(s), nil
	default:
		return "", fmt.Errorf("workload: unknown traffic kind %q", s)
	}
}

// String returns the kind's name, empty for the zero value (which every
// consumer normalizes to KindPoisson).
func (k Kind) String() string { return string(k) }

// MarshalText renders the canonical name (the zero value marshals as
// "poisson") and rejects unknown kinds at encode time.
func (k Kind) MarshalText() ([]byte, error) { return enum.MarshalText(k, ParseKind) }

// UnmarshalText parses exactly the names ParseKind accepts.
func (k *Kind) UnmarshalText(text []byte) error { return enum.UnmarshalText(k, text, ParseKind) }

// Source generates successive think times for one station. Next returns
// the time until the station's next request, drawing any randomness it
// needs from rng; implementations may keep hidden state (e.g. the MMPP
// modulating chain) but must be deterministic given the rng's draws, so
// simulation runs stay reproducible. A Source belongs to one run of one
// station and is not safe for concurrent use.
type Source interface {
	// Next returns the next inter-arrival (think) time, > 0 and finite.
	Next(rng *sim.RNG) float64
}

// Spec is the serializable description of a traffic shape — the value
// type public configs embed. It is comparable and round-trips through
// JSON. Kind selects the shape; the remaining fields parameterize only
// the kinds that name them and must be zero elsewhere (Validate rejects
// stray parameters so config typos cannot silently change the model).
//
// Poisson and Deterministic take their rate from the configuration's
// base think rate, passed to Validate/NewSource/MeanRate, so sweeping
// ThinkRate sweeps them directly; MMPP2 and OnOff carry their own rates
// and ignore the base rate.
type Spec struct {
	Kind Kind `json:"kind,omitempty"`

	// MMPP2: arrival rates inside hidden states 0 and 1 (≥ 0, not both
	// zero) and the transition rates between them (> 0).
	Rate0    float64 `json:"rate0,omitempty"`
	Rate1    float64 `json:"rate1,omitempty"`
	Switch01 float64 `json:"switch01,omitempty"`
	Switch10 float64 `json:"switch10,omitempty"`

	// OnOff: arrival rate while ON (> 0), ON fraction of the cycle
	// (in (0, 1)), and mean ON+OFF cycle duration (> 0).
	BurstRate float64 `json:"burst_rate,omitempty"`
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	CycleTime float64 `json:"cycle_time,omitempty"`
}

// Normalized returns the spec with an empty Kind resolved to
// KindPoisson, so every layer echoes canonical names.
func (s Spec) Normalized() Spec {
	if s.Kind == "" {
		s.Kind = KindPoisson
	}
	return s
}

// posFinite reports whether x is a usable rate or duration: > 0, finite.
func posFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// param is one named spec field, for reporting stray parameters.
type param struct {
	name string
	v    float64
}

// zeroParams rejects parameters that the spec's kind does not consume.
// Catching them at validation time keeps a mistyped config from silently
// running a different model than the author intended.
func zeroParams(kind Kind, fields ...param) error {
	for _, f := range fields {
		if f.v != 0 {
			return fmt.Errorf("workload: %s = %v is not a parameter of %s traffic", f.name, f.v, kind)
		}
	}
	return nil
}

// Validate reports the first error in the spec given the configuration's
// base think rate, or nil. The base rate is only constrained for kinds
// that consume it (poisson, deterministic).
func (s Spec) Validate(baseRate float64) error {
	switch s.Normalized().Kind {
	case KindPoisson, KindDeterministic:
		if !posFinite(baseRate) {
			return fmt.Errorf("workload: %s traffic needs a base think rate, have %v",
				s.Normalized().Kind, baseRate)
		}
		return zeroParams(s.Normalized().Kind,
			param{"rate0", s.Rate0}, param{"rate1", s.Rate1},
			param{"switch01", s.Switch01}, param{"switch10", s.Switch10},
			param{"burst_rate", s.BurstRate}, param{"duty_cycle", s.DutyCycle},
			param{"cycle_time", s.CycleTime})
	case KindMMPP2:
		switch {
		case s.Rate0 < 0 || math.IsInf(s.Rate0, 1) || math.IsNaN(s.Rate0):
			return fmt.Errorf("workload: mmpp2 rate0 = %v, need finite and ≥ 0", s.Rate0)
		case s.Rate1 < 0 || math.IsInf(s.Rate1, 1) || math.IsNaN(s.Rate1):
			return fmt.Errorf("workload: mmpp2 rate1 = %v, need finite and ≥ 0", s.Rate1)
		case s.Rate0 == 0 && s.Rate1 == 0:
			return fmt.Errorf("workload: mmpp2 with rate0 = rate1 = 0 never generates a request")
		case !posFinite(s.Switch01):
			return fmt.Errorf("workload: mmpp2 switch01 = %v, need finite and > 0", s.Switch01)
		case !posFinite(s.Switch10):
			return fmt.Errorf("workload: mmpp2 switch10 = %v, need finite and > 0", s.Switch10)
		}
		// 2·s01·s10/(s10·rate0 + s01·rate1), divided through by s01·s10
		// so that no finite rates overflow it to NaN.
		if err := checkSwitches(KindMMPP2, 2/(s.Rate0/s.Switch01+s.Rate1/s.Switch10)); err != nil {
			return err
		}
		return zeroParams(KindMMPP2,
			param{"burst_rate", s.BurstRate}, param{"duty_cycle", s.DutyCycle},
			param{"cycle_time", s.CycleTime})
	case KindOnOff:
		switch {
		case !posFinite(s.BurstRate):
			return fmt.Errorf("workload: onoff burst_rate = %v, need finite and > 0", s.BurstRate)
		case !(s.DutyCycle > 0 && s.DutyCycle < 1):
			return fmt.Errorf("workload: onoff duty_cycle = %v, need in (0, 1)", s.DutyCycle)
		case !posFinite(s.CycleTime):
			return fmt.Errorf("workload: onoff cycle_time = %v, need finite and > 0", s.CycleTime)
		}
		// Two switches per cycle, burst_rate·duty_cycle arrivals per unit time.
		if err := checkSwitches(KindOnOff, 2/(s.CycleTime*s.BurstRate*s.DutyCycle)); err != nil {
			return err
		}
		return zeroParams(KindOnOff,
			param{"rate0", s.Rate0}, param{"rate1", s.Rate1},
			param{"switch01", s.Switch01}, param{"switch10", s.Switch10})
	default:
		return fmt.Errorf("workload: unknown traffic kind %q", s.Kind)
	}
}

// maxSwitchesPerArrival bounds how often a modulated source's hidden
// chain may switch per arrival, on average. Next walks every switch up
// to the next arrival, however far past the horizon that lies, so a
// chain that switches far more often than it arrives stalls the
// simulator, for hours at an MMPP2 rate of 10⁻¹². On a 2-CPU Xeon VM a
// switch costs 12–19 ns: one MMPP2 station at 10⁶ switches per arrival
// took 19 ms on average over 20 seeds to run a horizon of 1, and one at
// this bound about 2.4 ms. The repository's scenarios and tests switch
// at most about 4·10⁴ times per arrival.
const maxSwitchesPerArrival = 2e5

// checkSwitches refuses a modulated spec of the given kind whose chain
// switches ratio times per arrival on average, when ratio exceeds
// maxSwitchesPerArrival or is NaN.
func checkSwitches(kind Kind, ratio float64) error {
	if !(ratio <= maxSwitchesPerArrival) {
		return fmt.Errorf("workload: %s hidden chain switches %.3g times per arrival on average, need ≤ %g: its source walks every switch to the next arrival",
			kind, ratio, maxSwitchesPerArrival)
	}
	return nil
}

// MeanRate returns the long-run request rate the spec generates given
// the base think rate: the stationary arrival rate of the modulated
// kinds, the base rate itself for poisson and deterministic. It is the
// quantity to hold fixed when sweeping burstiness at constant offered
// load.
func (s Spec) MeanRate(baseRate float64) float64 {
	switch s.Normalized().Kind {
	case KindMMPP2:
		// Stationary state probabilities of the modulating chain:
		// π0 = r10/(r01+r10), π1 = r01/(r01+r10).
		total := s.Switch01 + s.Switch10
		return (s.Switch10*s.Rate0 + s.Switch01*s.Rate1) / total
	case KindOnOff:
		return s.BurstRate * s.DutyCycle
	default:
		return baseRate
	}
}

// Detail renders the kind-specific parameters as a compact
// "key=value;…" string for CSV provenance columns. Kinds parameterized
// solely by the base think rate (poisson, deterministic) return "" —
// their rate already has its own column.
func (s Spec) Detail() string {
	switch s.Normalized().Kind {
	case KindMMPP2:
		return fmt.Sprintf("rate0=%v;rate1=%v;switch01=%v;switch10=%v",
			s.Rate0, s.Rate1, s.Switch01, s.Switch10)
	case KindOnOff:
		return fmt.Sprintf("burst_rate=%v;duty_cycle=%v;cycle_time=%v",
			s.BurstRate, s.DutyCycle, s.CycleTime)
	default:
		return ""
	}
}

// NewSource validates the spec and builds a fresh source instance for
// one station. Stateful kinds need one instance per station (modulated
// kinds carry hidden state, deterministic its phase); the Poisson
// source is stateless, so the stations of one run may share it. All
// instances of a run share the run's RNG via Next.
func (s Spec) NewSource(baseRate float64) (Source, error) {
	if err := s.Validate(baseRate); err != nil {
		return nil, err
	}
	switch s.Normalized().Kind {
	case KindPoisson:
		return &poisson{rate: baseRate}, nil
	case KindDeterministic:
		return &deterministic{interval: 1 / baseRate}, nil
	case KindMMPP2:
		return &modulated{
			rate:  [2]float64{s.Rate0, s.Rate1},
			leave: [2]float64{s.Switch01, s.Switch10},
		}, nil
	default: // KindOnOff: an MMPP2 whose state 1 is silent.
		meanOn := s.DutyCycle * s.CycleTime
		meanOff := (1 - s.DutyCycle) * s.CycleTime
		return &modulated{
			rate:  [2]float64{s.BurstRate, 0},
			leave: [2]float64{1 / meanOn, 1 / meanOff},
		}, nil
	}
}

// poisson draws exponential inter-arrivals — one ExpFloat64 per request,
// the exact draw sequence of the pre-workload model.
type poisson struct{ rate float64 }

func (p *poisson) Next(rng *sim.RNG) float64 { return rng.Exp(p.rate) }

// deterministic emits a fixed interval after a random initial phase —
// the equilibrium (stationary) version of the periodic renewal process.
// Without the phase draw every station of a run would fire in lockstep
// from t=0 and the "deterministic" curve would measure the synchronized
// batch artifact instead of the shape: N aligned stations issue N-request
// bursts forever, since a buffered station's clock never drifts. One
// uniform draw per station at the first request desynchronizes them;
// every draw after that is exact and consumes no randomness.
type deterministic struct {
	interval float64
	started  bool
}

func (d *deterministic) Next(rng *sim.RNG) float64 {
	if !d.started {
		d.started = true
		// (0, interval]: 1−U keeps the doc's Next > 0 contract (U ∈ [0,1)).
		return d.interval * (1 - rng.Uniform())
	}
	return d.interval
}

// modulated is the shared core of MMPP2 and OnOff: Poisson arrivals
// whose rate is switched by a hidden 2-state Markov chain. rate[s] is
// the arrival rate inside state s (may be 0: silent) and leave[s] the
// rate of leaving it. The chain advances in think-time — only across the
// intervals Next returns.
type modulated struct {
	rate    [2]float64
	leave   [2]float64
	state   int
	started bool
}

// Next samples the time to the next arrival by racing, in each visited
// state, the exponential arrival clock against the exponential
// state-departure clock; memorylessness makes restarting both clocks at
// every state change exact. The hidden state persists across calls.
func (m *modulated) Next(rng *sim.RNG) float64 {
	if !m.started {
		m.started = true
		// Start in the stationary distribution, π1 = r01/(r01+r10), so
		// the shape is in steady state from the first draw.
		if rng.Uniform() < m.leave[0]/(m.leave[0]+m.leave[1]) {
			m.state = 1
		}
	}
	t := 0.0
	for {
		dwell := rng.Exp(m.leave[m.state])
		if r := m.rate[m.state]; r > 0 {
			if arrival := rng.Exp(r); arrival < dwell {
				return t + arrival
			}
		}
		t += dwell
		m.state ^= 1
	}
}
