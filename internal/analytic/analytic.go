// Package analytic provides the closed-form reference models the paper
// validates its simulations against. Quantities use the same conventions
// as the simulator, internal/topo: λ is the per-processor request rate
// while thinking, μ the bus service rate, wait excludes service,
// response includes it, and queue length excludes the request in
// service.
package analytic

import (
	"fmt"
	"math"
)

// Prediction holds steady-state quantities for the shared bus (or, in
// the multi-bus forms, the bus fabric: Utilization is then the mean
// fraction of busy buses, matching the simulator's aggregate).
type Prediction struct {
	Utilization  float64 `json:"utilization"`
	Throughput   float64 `json:"throughput"`
	MeanWait     float64 `json:"mean_wait"`
	MeanResponse float64 `json:"mean_response"`
	MeanQueueLen float64 `json:"mean_queue_len"`
}

// BufferedInfinite models the buffered regime with unbounded interface
// queues as an open M/M/1 queue: processors never block, so requests
// arrive Poisson at aggregate rate Nλ. It errors when the offered load
// Nλ/μ ≥ 1, where no steady state exists.
func BufferedInfinite(n int, lambda, mu float64) (Prediction, error) {
	lam := float64(n) * lambda
	rho := lam / mu
	if rho >= 1 {
		return Prediction{}, fmt.Errorf(
			"analytic: offered load Nλ/μ = %.3f ≥ 1, infinite-buffer system is unstable", rho)
	}
	return Prediction{
		Utilization:  rho,
		Throughput:   lam,
		MeanWait:     rho / (mu - lam),
		MeanResponse: 1 / (mu - lam),
		MeanQueueLen: rho * rho / (1 - rho),
	}, nil
}

// MG1BufferedInfinite models the buffered regime with unbounded
// interface queues and a general service-time distribution as an open
// M/G/1 queue: processors never block, so requests arrive Poisson at
// aggregate rate Nλ and are served at rate μ with squared coefficient
// of variation scv = Var[S]/E[S]². The mean wait is the exact
// Pollaczek–Khinchine formula
//
//	Wq = λ·E[S²]/(2(1−ρ)) = ρ·(1+c²)/2 / (μ−Nλ),
//
// and the remaining quantities follow from Little's law. scv = 1
// reproduces BufferedInfinite's M/M/1 mean wait bit for bit ((1+1)/2 is
// exactly 1) and the other fields up to rounding; scv = 0 is the exact
// M/D/1 mean wait; Erlang-k and hyperexponential service plug in 1/k
// and c² ≥ 1 respectively. It
// errors when the offered load Nλ/μ ≥ 1, where no steady state exists,
// or when scv is not a finite nonnegative number.
func MG1BufferedInfinite(n int, lambda, mu, scv float64) (Prediction, error) {
	if math.IsNaN(scv) || scv < 0 || math.IsInf(scv, 1) {
		return Prediction{}, fmt.Errorf("analytic: service scv = %v, need finite and ≥ 0", scv)
	}
	lam := float64(n) * lambda
	rho := lam / mu
	if rho >= 1 {
		return Prediction{}, fmt.Errorf(
			"analytic: offered load Nλ/μ = %.3f ≥ 1, infinite-buffer system is unstable", rho)
	}
	wq := rho * (1 + scv) / 2 / (mu - lam)
	return Prediction{
		Utilization:  rho,
		Throughput:   lam,
		MeanWait:     wq,
		MeanResponse: wq + 1/mu,
		MeanQueueLen: lam * wq, // Little's law on the waiting room
	}, nil
}

// MD1BufferedInfinite is the exact M/D/1 reference — deterministic
// (fixed-width) bus transactions of duration 1/μ under Poisson arrivals
// at aggregate rate Nλ. It is Pollaczek–Khinchine at scv = 0: the wait
// is exactly half the M/M/1 wait at every load, the classical
// variability dividend of fixed-size transfers.
func MD1BufferedInfinite(n int, lambda, mu float64) (Prediction, error) {
	return MG1BufferedInfinite(n, lambda, mu, 0)
}

// MultiUnbuffered is the exact finite-source M/M/m//N ("machine
// repairman with m repairmen") model of the unbuffered regime on a
// fabric of m identical buses: each of the N processors thinks for an
// exponential time with rate λ, then blocks until one of the m buses
// (each serving at rate μ) has completed its request. The state
// probabilities are
//
//	p_k ∝ N!/(N-k)! · (λ/μ)^k / Π_{j=1..k} min(j, m),  k = 0..N,
//
// where k is the number of processors waiting at or using the fabric;
// m = 1 is the paper's single-bus machine-repairman model. Utilization
// is the mean fraction of busy buses E[min(k,m)]/m. The busy and
// waiting masses E[min(k,m)] and E[k − min(k,m)] are accumulated
// directly, never as differences, so every quantity keeps full
// relative precision down to vanishing load: W = Lq/X by Little's law
// on the waiting room. The unnormalized terms grow like N!·ρ^N, so
// they are accumulated with periodic rescaling (the ratios, which are
// all that survive normalization, are preserved); a load so extreme
// that a single step outruns even that collapses to the exact
// saturation limit instead of NaN.
func MultiUnbuffered(n, m int, lambda, mu float64) (Prediction, error) {
	if m < 1 {
		return Prediction{}, fmt.Errorf("analytic: buses = %d, need ≥ 1", m)
	}
	rho := lambda / mu
	mf := float64(m)
	term := 1.0 // p_k unnormalized
	sum := 1.0  // Σ terms
	bSum := 0.0 // Σ min(k,m)·term: unnormalized mean busy buses
	qSum := 0.0 // Σ (k−min(k,m))·term: unnormalized mean number waiting
	for k := 1; k <= n; k++ {
		busy := math.Min(float64(k), mf)
		term *= float64(n-k+1) * rho / busy
		sum += term
		bSum += busy * term
		qSum += (float64(k) - busy) * term
		if term > 1e250 {
			term /= 1e250
			sum /= 1e250
			bSum /= 1e250
			qSum /= 1e250
		}
	}
	if math.IsInf(sum, 1) || math.IsInf(qSum, 1) {
		// All mass in the top state: every processor at the fabric.
		busy := math.Min(float64(n), mf)
		return fromMasses(busy, float64(n)-busy, mf, mu), nil
	}
	return fromMasses(bSum/sum, qSum/sum, mf, mu), nil
}

// fromMasses completes a prediction from the mean number of busy buses
// and the mean number waiting: Little's law on the waiting room gives
// W = Lq/X with X = μ·busy. No traffic at all (busy = 0, so nothing
// waits either) reads as zero wait.
func fromMasses(busy, lq, m, mu float64) Prediction {
	x := mu * busy
	var w float64
	if lq > 0 {
		w = lq / x
	}
	return Prediction{
		Utilization:  busy / m,
		Throughput:   x,
		MeanWait:     w,
		MeanResponse: w + 1/mu,
		MeanQueueLen: lq,
	}
}

// MultiBufferedInfinite models the buffered regime with unbounded
// interface queues on m buses as an open M/M/m queue (Erlang C):
// processors never block, so requests arrive Poisson at aggregate rate
// Nλ and are drained by m servers of rate μ each. The waiting
// probability comes from the numerically stable Erlang-B recurrence
// B(j) = a·B(j−1)/(j + a·B(j−1)) with C = B(m)/(1 − ρ(1−B(m))). It
// errors when the offered load Nλ/(mμ) ≥ 1, where no steady state
// exists. At m = 1, C collapses to ρ and every quantity to the M/M/1
// forms of BufferedInfinite.
func MultiBufferedInfinite(n, m int, lambda, mu float64) (Prediction, error) {
	if m < 1 {
		return Prediction{}, fmt.Errorf("analytic: buses = %d, need ≥ 1", m)
	}
	lam := float64(n) * lambda
	a := lam / mu // offered load in Erlangs
	rho := a / float64(m)
	if rho >= 1 {
		return Prediction{}, fmt.Errorf(
			"analytic: offered load Nλ/(mμ) = %.3f ≥ 1, infinite-buffer system is unstable", rho)
	}
	b := 1.0 // Erlang-B blocking probability, built up server by server
	for j := 1; j <= m; j++ {
		b = a * b / (float64(j) + a*b)
	}
	c := b / (1 - rho*(1-b)) // Erlang-C probability an arrival waits
	wq := c / (float64(m)*mu - lam)
	return Prediction{
		Utilization:  rho,
		Throughput:   lam,
		MeanWait:     wq,
		MeanResponse: wq + 1/mu,
		MeanQueueLen: lam * wq, // Little's law on the waiting room
	}, nil
}

// MultiBufferedFinite approximates the buffered regime with
// per-processor capacity c on m buses as an M/M/m/K queue with system
// capacity K = N·c + m (total buffer slots plus the m requests in
// service); m = 1 is the M/M/1/K form with K = N·c + 1. Backpressure —
// a processor stalling at a full interface — is approximated as loss,
// so the model is accurate when blocking is rare and optimistic when
// the buffers saturate. Wait and response are per admitted request.
// As in MultiUnbuffered, the busy and waiting masses are accumulated
// directly, so the wait keeps full relative precision at vanishing
// load.
func MultiBufferedFinite(n, m int, lambda, mu float64, capacity int) (Prediction, error) {
	if m < 1 {
		return Prediction{}, fmt.Errorf("analytic: buses = %d, need ≥ 1", m)
	}
	if capacity < 1 {
		return Prediction{}, fmt.Errorf("analytic: capacity = %d, need ≥ 1", capacity)
	}
	lam := float64(n) * lambda
	a := lam / mu
	mf := float64(m)
	k := n*capacity + m
	// p_j ∝ a^j/j! for j ≤ m and p_m·(a/m)^(j−m) beyond; accumulate the
	// unnormalized terms with periodic rescaling so a supercritical load
	// (a/m > 1) cannot overflow float64 over a deep buffer — the ratios,
	// which are all that survive the division by sum, are preserved.
	term := 1.0
	sum := 1.0
	bSum := 0.0 // Σ min(j,m)·term
	qSum := 0.0 // Σ (j−min(j,m))·term
	for j := 1; j <= k; j++ {
		busy := math.Min(float64(j), mf)
		term *= a / busy
		sum += term
		bSum += busy * term
		qSum += (float64(j) - busy) * term
		if term > 1e250 {
			term /= 1e250
			sum /= 1e250
			bSum /= 1e250
			qSum /= 1e250
		}
	}
	if math.IsInf(sum, 1) || math.IsInf(qSum, 1) {
		// A single step outran the rescale (astronomical a): all mass sits
		// in the top state — the exact saturation limit.
		return fromMasses(mf, float64(k-m), mf, mu), nil
	}
	return fromMasses(bSum/sum, qSum/sum, mf, mu), nil
}
