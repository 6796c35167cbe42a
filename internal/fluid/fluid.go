package fluid

import (
	"fmt"
	"math"
)

// Prediction holds the mean-field steady-state quantities, in the same
// conventions as internal/analytic and internal/topo: λ is the
// per-station request rate while thinking, μ the per-bus service rate,
// wait excludes service, response includes it, queue length excludes
// requests in service, and Utilization is the mean fraction of busy
// buses. Blocked is the extra quantity only the fluid model reports
// directly: the stationary fraction of stations whose processor is
// blocked — waiting at or using the bus in the unbuffered regime,
// stalled at a full interface in the buffered-finite regime.
type Prediction struct {
	Utilization  float64 `json:"utilization"`
	Throughput   float64 `json:"throughput"`
	MeanWait     float64 `json:"mean_wait"`
	MeanResponse float64 `json:"mean_response"`
	MeanQueueLen float64 `json:"mean_queue_len"`
	Blocked      float64 `json:"blocked"`
}

// MaxCapacity bounds the per-station buffer depth the fluid solver
// accepts: its state space is one occupancy fraction per buffer level,
// so cost is O(capacity) — independent of N, but not of the buffer
// depth.
const MaxCapacity = 10_000_000

// validate checks the parameters shared by both regimes.
func validate(n, m int, lambda, mu float64) error {
	switch {
	case n < 1:
		return fmt.Errorf("fluid: processors = %d, need ≥ 1", n)
	case m < 1:
		return fmt.Errorf("fluid: buses = %d, need ≥ 1", m)
	case !(lambda > 0) || math.IsInf(lambda, 1):
		return fmt.Errorf("fluid: think rate = %v, need finite and > 0", lambda)
	case !(mu > 0) || math.IsInf(mu, 1):
		return fmt.Errorf("fluid: service rate = %v, need finite and > 0", mu)
	}
	return nil
}

// Unbuffered is the mean-field limit of the machine-repairman regime
// (exact model: finite-source M/M/m//N): y(t), the fraction of the N
// stations blocked at the fabric (waiting or in service), obeys
//
//	dy/dt = λ(1−y) − μ·min(y, c),   c = m/N,
//
// where λ(1−y) is the think-completion inflow and the drain saturates
// at the fabric's per-station capacity c. The fixed point is
// closed-form — y* = λ/(λ+μ) when that is ≤ c (enough buses: no
// queueing in the limit), else y* = 1 − μc/λ (saturated fabric) — so
// no integration is needed; UnbufferedODE exposes the dynamics for
// cross-checking. Cost is O(1) in both N and m.
//
// The mean-field error against the exact M/M/m//N forms is O(1/N) at
// fixed c and vanishes exponentially deep in saturation; at the
// critical load λ/(λ+μ) = c fluctuations decay only like O(1/√N). See
// docs/fluid.md.
func Unbuffered(n, m int, lambda, mu float64) (Prediction, error) {
	if err := validate(n, m, lambda, mu); err != nil {
		return Prediction{}, err
	}
	c := float64(m) / float64(n)
	y := lambda / (lambda + mu)
	if y > c {
		y = 1 - mu*c/lambda
	}
	return unbufferedAt(y, n, m, lambda, mu), nil
}

// unbufferedAt maps a blocked fraction y onto the Metrics shape.
func unbufferedAt(y float64, n, m int, lambda, mu float64) Prediction {
	nf := float64(n)
	busy := math.Min(nf*y, float64(m)) // buses serving
	return fromMasses(busy, nf*y-busy, m, mu, y)
}

// fromMasses completes a prediction from the mean number of busy buses
// and the mean number of requests waiting: Little's law on the waiting
// room gives W = Lq/X with X = μ·busy, so the wait never comes from
// subtracting 1/μ off a response and stays ≥ 0 at any load. With no
// waiting mass the wait is exactly zero.
func fromMasses(busy, lq float64, m int, mu, blocked float64) Prediction {
	x := mu * busy
	var w float64
	if lq > 0 {
		w = lq / x
	}
	return Prediction{
		Utilization:  busy / float64(m),
		Throughput:   x,
		MeanWait:     w,
		MeanResponse: w + 1/mu,
		MeanQueueLen: lq,
		Blocked:      blocked,
	}
}

// UnbufferedODE returns the one-dimensional machine-repairman
// mean-field vector field and its empty-system initial state (all
// stations thinking), for integrating the dynamics with RK45/Relax.
func UnbufferedODE(n, m int, lambda, mu float64) (ODE, []float64) {
	c := float64(m) / float64(n)
	f := func(_ float64, y, dy []float64) {
		dy[0] = lambda*(1-y[0]) - mu*math.Min(y[0], c)
	}
	return f, []float64{0}
}

// BufferedFinite is the mean-field limit of the buffered regime with
// per-station interface capacity cap: the station population is tracked
// as occupancy fractions p_k, k = 0..K (K = cap requests outstanding at
// the interface, including the one in service) plus a stalled state p_s
// (interface full and one more request held at the processor, which
// stops thinking — the DES's stall-and-hold, not loss). Arrivals move a
// station up one level at rate λ; the shared fabric drains each
// nonempty station at the arbiter's symmetric rate split
//
//	δ = μ·min(1, c/u),   c = m/N,  u = Σ_{k≥1} p_k + p_s,
//
// (each backlogged station gets an equal share of the m buses — the
// round-robin/uniform-WRR coupling term). A drained stalled station
// admits its held request immediately and resumes thinking, so stall
// drains back to level K.
//
// The stationary distribution is geometric, p_k = p_0·r^k with
// r = λ/δ and p_s = p_0·r^{K+1}, self-consistent through δ(u). Below
// capacity (u ≤ c) the drain is μ whatever u is, so the fixed point is
// closed-form; above it the solver bisects for u* to relative
// precision — closed-form per evaluation, so cost is O(cap) and O(1) in
// N. BufferedODE exposes the full dynamics for cross-checking against
// Relax.
func BufferedFinite(n, m int, lambda, mu float64, capacity int) (Prediction, error) {
	if err := validate(n, m, lambda, mu); err != nil {
		return Prediction{}, err
	}
	if capacity < 1 {
		return Prediction{}, fmt.Errorf("fluid: capacity = %d, need ≥ 1", capacity)
	}
	if capacity > MaxCapacity {
		return Prediction{}, fmt.Errorf(
			"fluid: capacity = %d exceeds the fluid solver's %d-level state bound", capacity, MaxCapacity)
	}
	c := float64(m) / float64(n)
	k := capacity

	// busyFraction(u) = 1 − p_0 for the geometric chain induced by u's
	// drain rate: the fixed point u* satisfies busyFraction(u*) = u*.
	busyFraction := func(u float64) float64 {
		return geomBusy(lambda/drain(mu, c, u), k+2)
	}
	// busyFraction is constant on [0, c], where the drain is μ, and
	// busyFraction(u)/u falls as u grows past c, so the root is unique:
	// the constant itself when that is at most c, else the bisection
	// root on (c, 1], where busyFraction(c) > c and busyFraction(1) ≤ 1.
	u := busyFraction(0)
	if u > c {
		lo, hi := c, 1.0
		for i := 0; i < 200 && hi-lo > 1e-15*hi; i++ {
			mid := lo + (hi-lo)/2
			if busyFraction(mid) > mid {
				lo = mid
			} else {
				hi = mid
			}
		}
		u = lo + (hi-lo)/2
	}
	return bufferedAt(u, n, m, lambda, mu, k), nil
}

// drain is the per-backlogged-station service rate: μ when backlogged
// stations are scarcer than buses, the equal capacity split μc/u
// otherwise.
func drain(mu, c, u float64) float64 {
	if u <= c {
		return mu
	}
	return mu * c / u
}

// geomBusy returns 1 − p_0 of a geometric chain p_j ∝ r^j over
// j = 0..levels−1 without subtracting from 1, which would cancel at
// small r: r·(1 − r^(levels−1))/(1 − r^levels) for r < 1, and the same
// ratio in powers of 1/r for r > 1 so nothing overflows, both via
// Expm1/Log. It is ≈ r as r → 0, (levels−1)/levels at r = 1, and → 1
// as r → ∞.
func geomBusy(r float64, levels int) float64 {
	l := float64(levels)
	switch x := math.Log(r); {
	case x < 0:
		return r * math.Expm1((l-1)*x) / math.Expm1(l*x)
	case x > 0:
		return math.Expm1(-(l-1)*x) / math.Expm1(-l*x)
	default:
		return (l - 1) / l
	}
}

// bufferedAt maps a backlogged fraction u onto the Metrics shape via
// the geometric occupancy distribution it induces.
func bufferedAt(u float64, n, m int, lambda, mu float64, k int) Prediction {
	nf := float64(n)
	c := float64(m) / nf
	r := lambda / drain(mu, c, u)

	// Occupancy moments over p_j = p_0·r^j, j = 0..K+1 (j = K+1 is the
	// stalled state: a full interface of K plus the held request, so K
	// of its K+1 outstanding requests wait). A backlogged station has
	// one request at the head of its interface; the rest wait. qSum
	// accumulates that waiting mass directly. Accumulated with periodic
	// rescaling, as in internal/analytic, so supercritical r cannot
	// overflow float64 over a deep buffer — only the ratios survive the
	// final normalization.
	term, sum, qSum := 1.0, 0.0, 0.0
	var stallTerm float64
	for j := 0; j <= k+1; j++ {
		if j == k+1 {
			stallTerm = term
		}
		sum += term
		if j > 1 {
			qSum += float64(j-1) * term
		}
		if term > 1e250 {
			term /= 1e250
			sum /= 1e250
			qSum /= 1e250
			stallTerm /= 1e250
		}
		term *= r
	}

	// Heads of backlogged interfaces, N·u of them, occupy the buses up
	// to m; the heads beyond that wait too.
	busy := math.Min(nf*u, float64(m))
	return fromMasses(busy, nf*(qSum/sum)+(nf*u-busy), m, mu, stallTerm/sum)
}

// BufferedODE returns the (cap+2)-dimensional buffered-finite mean-field
// vector field — y[j] is the fraction of stations with j outstanding
// requests at the interface for j = 0..cap, y[cap+1] the stalled
// fraction — and its empty-system initial state. Mass is conserved by
// construction (the flows are pairwise), so Σy stays 1 up to integrator
// tolerance.
func BufferedODE(n, m int, lambda, mu float64, capacity int) (ODE, []float64) {
	c := float64(m) / float64(n)
	k := capacity
	f := func(_ float64, y, dy []float64) {
		u := 0.0
		for j := 1; j <= k+1; j++ {
			u += y[j]
		}
		d := drain(mu, c, u)
		// Level flows: arrivals λ move j → j+1 (level K → stall), the
		// drain moves j → j−1 except stall → K (pop one, admit the held
		// request, resume thinking).
		dy[0] = d*y[1] - lambda*y[0]
		for j := 1; j <= k; j++ {
			dy[j] = lambda*y[j-1] + d*y[j+1] - (lambda+d)*y[j]
		}
		dy[k+1] = lambda*y[k] - d*y[k+1]
	}
	y0 := make([]float64, k+2)
	y0[0] = 1
	return f, y0
}
