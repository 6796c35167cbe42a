package analytic

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

func close(a, b, relTol float64) bool {
	if a == b {
		return true
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/denom <= relTol
}

// With one processor the single-bus machine-repairman model collapses
// to an alternating renewal process: U = λ/(λ+μ), no queueing at all.
func TestUnbufferedSingleProcessor(t *testing.T) {
	lambda, mu := 0.3, 1.2
	p, err := MultiUnbuffered(1, 1, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	wantU := lambda / (lambda + mu)
	if !close(p.Utilization, wantU, 1e-12) {
		t.Fatalf("U = %v, want %v", p.Utilization, wantU)
	}
	if !close(p.Throughput, mu*wantU, 1e-12) {
		t.Fatalf("X = %v, want %v", p.Throughput, mu*wantU)
	}
	if p.MeanWait != 0 || p.MeanQueueLen != 0 {
		t.Fatalf("single processor cannot queue: wait=%v qlen=%v", p.MeanWait, p.MeanQueueLen)
	}
	if p.MeanResponse != 1/mu {
		t.Fatalf("response = %v, want pure service %v", p.MeanResponse, 1/mu)
	}
}

func TestUnbufferedProperties(t *testing.T) {
	tests := []struct {
		name       string
		n          int
		lambda, mu float64
	}{
		{"light", 4, 0.05, 1},
		{"moderate", 8, 0.1, 1},
		{"saturated", 32, 0.5, 1},
	}
	prevU := 0.0
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := MultiUnbuffered(tt.n, 1, tt.lambda, tt.mu)
			if err != nil {
				t.Fatal(err)
			}
			if p.Utilization <= 0 || p.Utilization > 1 {
				t.Fatalf("U = %v outside (0, 1]", p.Utilization)
			}
			if p.Utilization <= prevU {
				t.Fatalf("utilization not increasing with offered load: %v ≤ %v",
					p.Utilization, prevU)
			}
			prevU = p.Utilization
			if !close(p.Throughput, tt.mu*p.Utilization, 1e-12) {
				t.Fatalf("X = %v, want μU = %v", p.Throughput, tt.mu*p.Utilization)
			}
			if !close(p.MeanResponse, p.MeanWait+1/tt.mu, 1e-9) {
				t.Fatalf("response %v != wait %v + service %v", p.MeanResponse, p.MeanWait, 1/tt.mu)
			}
			// Little's law on the waiting room.
			if !close(p.MeanQueueLen, p.Throughput*p.MeanWait, 1e-9) {
				t.Fatalf("Lq %v != X·Wq %v", p.MeanQueueLen, p.Throughput*p.MeanWait)
			}
		})
	}
	// Saturation limit: with overwhelming demand the bus is always busy
	// and each processor cycles once per N service times.
	p, err := MultiUnbuffered(16, 1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization < 0.9999 {
		t.Fatalf("saturated U = %v, want → 1", p.Utilization)
	}
	// Large populations must not overflow the factorial-like terms into
	// NaN: N!·ρ^N passes float64's range near N ≈ 180 at ρ = 1.
	// Regression guard for the rescaled accumulation.
	for _, n := range []int{200, 3000} {
		sat, err := MultiUnbuffered(n, 1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(sat.Utilization) || math.IsNaN(sat.MeanWait) {
			t.Fatalf("n=%d: prediction overflowed to NaN: %+v", n, sat)
		}
		if sat.Utilization < 0.999999 || sat.Utilization > 1 {
			t.Fatalf("n=%d: saturated U = %v, want → 1", n, sat.Utilization)
		}
	}
}

func TestBufferedInfiniteMatchesMM1(t *testing.T) {
	// N=8, λ=0.1, μ=1 → classic M/M/1 at ρ=0.8.
	p, err := BufferedInfinite(8, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !close(p.Utilization, 0.8, 1e-12) {
		t.Fatalf("U = %v, want 0.8", p.Utilization)
	}
	if !close(p.MeanWait, 4, 1e-12) { // ρ/(μ−λ) = 0.8/0.2
		t.Fatalf("Wq = %v, want 4", p.MeanWait)
	}
	if !close(p.MeanResponse, 5, 1e-12) { // 1/(μ−λ)
		t.Fatalf("W = %v, want 5", p.MeanResponse)
	}
	if !close(p.MeanQueueLen, 3.2, 1e-12) { // ρ²/(1−ρ)
		t.Fatalf("Lq = %v, want 3.2", p.MeanQueueLen)
	}
}

func TestBufferedInfiniteUnstable(t *testing.T) {
	if _, err := BufferedInfinite(10, 0.1, 1); err == nil {
		t.Fatal("offered load 1.0 accepted; want instability error")
	}
	if _, err := BufferedInfinite(4, 1, 1); err == nil {
		t.Fatal("offered load 4.0 accepted; want instability error")
	}
}

// The single-bus M/M/1/K form is MultiBufferedFinite at m = 1.
func TestBufferedFinite(t *testing.T) {
	if _, err := MultiBufferedFinite(4, 1, 0.1, 1, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	// Large buffers converge to the M/M/1 result when stable.
	big, err := MultiBufferedFinite(8, 1, 0.1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	mm1, _ := BufferedInfinite(8, 0.1, 1)
	if !close(big.Utilization, mm1.Utilization, 1e-6) {
		t.Fatalf("large-buffer U = %v, want M/M/1 %v", big.Utilization, mm1.Utilization)
	}
	if !close(big.MeanWait, mm1.MeanWait, 1e-3) {
		t.Fatalf("large-buffer Wq = %v, want M/M/1 %v", big.MeanWait, mm1.MeanWait)
	}
	// A finite system has a steady state even above offered load 1, with
	// utilization pinned below 1 and throughput capped at μU.
	sat, err := MultiBufferedFinite(8, 1, 0.5, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sat.Utilization <= 0.9 || sat.Utilization >= 1 {
		t.Fatalf("saturated finite U = %v, want just below 1", sat.Utilization)
	}
	if !close(sat.Throughput, sat.Utilization, 1e-12) { // μ = 1
		t.Fatalf("X = %v, want μU = %v", sat.Throughput, sat.Utilization)
	}
	// Deep buffers at high offered load must not overflow the geometric
	// sums: a^(N·cap+1) here is ~10^770, far past float64. Regression
	// guard for the overflow-to-NaN bug.
	deep, err := MultiBufferedFinite(64, 1, 1, 0.0625, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(deep.MeanWait) || math.IsInf(deep.MeanWait, 0) ||
		math.IsNaN(deep.Utilization) {
		t.Fatalf("deep-buffer prediction not finite: %+v", deep)
	}
	if deep.Utilization < 0.999999 || deep.Utilization > 1 {
		t.Fatalf("deep-buffer saturated U = %v, want → 1", deep.Utilization)
	}
	// Continuity across the a = 1 boundary: a slightly above vs slightly
	// below must give nearly identical predictions.
	lo, _ := MultiBufferedFinite(8, 1, 0.1249999, 1, 4)
	hi, _ := MultiBufferedFinite(8, 1, 0.1250001, 1, 4)
	if !close(lo.MeanWait, hi.MeanWait, 1e-4) || !close(lo.Utilization, hi.Utilization, 1e-4) {
		t.Fatalf("discontinuity at a=1: below %+v above %+v", lo, hi)
	}
	// The a = 1 balanced case uses the closed-form limit.
	bal, err := MultiBufferedFinite(10, 1, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := 10*1 + 1
	wantU := 1 - 1/float64(k+1)
	if !close(bal.Utilization, wantU, 1e-12) {
		t.Fatalf("balanced U = %v, want %v", bal.Utilization, wantU)
	}
}

// predictionsClose compares every field of two predictions at relTol.
func predictionsClose(t *testing.T, got, want Prediction, relTol float64, context string) {
	t.Helper()
	fields := []struct {
		name      string
		got, want float64
	}{
		{"utilization", got.Utilization, want.Utilization},
		{"throughput", got.Throughput, want.Throughput},
		{"mean_wait", got.MeanWait, want.MeanWait},
		{"mean_response", got.MeanResponse, want.MeanResponse},
		{"mean_queue_len", got.MeanQueueLen, want.MeanQueueLen},
	}
	for _, f := range fields {
		if !close(f.got, f.want, relTol) && math.Abs(f.got-f.want) > 1e-12 {
			t.Errorf("%s: %s = %v, want %v", context, f.name, f.got, f.want)
		}
	}
}

// The correctness spine of the multi-bus forms at m = 1: the blocking
// and finite-buffer forms against the big-float oracle of the same
// single-bus chains, and Erlang C against its M/M/1 counterpart, which
// goes through algebraically different but equivalent routes.
func TestMultiFormsDegenerateToSingleBus(t *testing.T) {
	operating := []struct {
		n          int
		lambda, mu float64
	}{
		{1, 0.3, 1.2},
		{4, 0.05, 1},
		{8, 0.1, 1},
		{16, 0.05, 1},
		{32, 0.02, 0.8},
	}
	for _, op := range operating {
		multi, err := MultiUnbuffered(op.n, 1, op.lambda, op.mu)
		if err != nil {
			t.Fatal(err)
		}
		predictionsClose(t, multi, unbufferedOracle(op.n, 1, op.lambda, op.mu), 1e-12,
			"multi-unbuffered m=1")

		single, serr := BufferedInfinite(op.n, op.lambda, op.mu)
		mm1, merr := MultiBufferedInfinite(op.n, 1, op.lambda, op.mu)
		if (serr == nil) != (merr == nil) {
			t.Fatalf("n=%d: stability verdicts disagree: single %v, multi %v", op.n, serr, merr)
		}
		if serr == nil {
			predictionsClose(t, mm1, single, 1e-12, "erlang-c m=1")
		}

		for _, capacity := range []int{1, 4, 16} {
			fm, err := MultiBufferedFinite(op.n, 1, op.lambda, op.mu, capacity)
			if err != nil {
				t.Fatal(err)
			}
			predictionsClose(t, fm, bufferedFiniteOracle(op.n, 1, op.lambda, op.mu, capacity), 1e-12,
				"mmmk m=1")
		}
	}
}

// oraclePrec is the oracle's working precision in bits: enough that
// the textbook subtractions Lq = L − busy and W = L/X − 1/μ stay exact
// to double precision even at λ/μ = 1e-100, where each cancels a few
// hundred bits.
const oraclePrec = 2000

// oracle evaluates the birth–death chain over states k = 0..top in
// oraclePrec-bit arithmetic, with birth rate births(k)·λ out of state
// k and service rate min(k, m)·μ in it, then reads every field off the
// state probabilities by its textbook definition.
func oracle(top, m int, births func(k int) int, lambda, mu float64) Prediction {
	num := func(x float64) *big.Float { return new(big.Float).SetPrec(oraclePrec).SetFloat64(x) }
	// step[j] = λ/(j·μ): the service side of the ratio p_k/p_{k−1}
	// with j = min(k, m) buses busy.
	step := make([]*big.Float, m+1)
	for j := 1; j <= m; j++ {
		step[j] = num(0).Quo(num(lambda), num(0).Mul(num(float64(j)), num(mu)))
	}
	term, sum, lSum, bSum := num(1), num(1), num(0), num(0)
	small, tmp := num(0), num(0) // reused across states
	for k := 1; k <= top; k++ {
		busy := float64(min(k, m))
		term.Mul(term, small.SetFloat64(float64(births(k-1))))
		term.Mul(term, step[min(k, m)])
		sum.Add(sum, term)
		lSum.Add(lSum, tmp.Mul(small.SetFloat64(float64(k)), term))
		bSum.Add(bSum, tmp.Mul(small.SetFloat64(busy), term))
	}
	l := num(0).Quo(lSum, sum)
	busy := num(0).Quo(bSum, sum)
	x := num(0).Mul(num(mu), busy)
	resp := num(0).Quo(l, x)
	f := func(v *big.Float) float64 { r, _ := v.Float64(); return r }
	return Prediction{
		Utilization:  f(num(0).Quo(busy, num(float64(m)))),
		Throughput:   f(x),
		MeanWait:     f(num(0).Sub(resp, num(0).Quo(num(1), num(mu)))),
		MeanResponse: f(resp),
		MeanQueueLen: f(num(0).Sub(l, busy)),
	}
}

// unbufferedOracle is the M/M/m//N chain: N − k thinking processors
// each request at λ.
func unbufferedOracle(n, m int, lambda, mu float64) Prediction {
	return oracle(n, m, func(k int) int { return n - k }, lambda, mu)
}

// bufferedFiniteOracle is the M/M/m/K chain with K = N·c + m: arrivals
// at Nλ in every state below K.
func bufferedFiniteOracle(n, m int, lambda, mu float64, capacity int) Prediction {
	return oracle(n*capacity+m, m, func(int) int { return n }, lambda, mu)
}

// Every field of both m-server forms within 1e-12 relative of the
// big-float oracle, from deep saturation (λ/μ = 100) down to a load so
// small (λ/μ = 1e-100) that subtracting from 1 or from 1/μ in double
// precision would lose the answer entirely.
func TestClosedFormsMatchBigOracle(t *testing.T) {
	loads := []float64{100, 10, 1, 0.1, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-50, 1e-100}
	for _, n := range []int{1, 8, 64, 512} {
		for _, m := range []int{1, 2, 4} {
			for _, rho := range loads {
				// μ = 1 keeps λ/μ exact, so the oracle and the forms see
				// the same chain to the last bit of its inputs.
				name := fmt.Sprintf("N=%d/m=%d/rho=%g", n, m, rho)
				got, err := MultiUnbuffered(n, m, rho, 1)
				if err != nil {
					t.Fatal(err)
				}
				oracleClose(t, got, unbufferedOracle(n, m, rho, 1), "unbuffered/"+name)
				for _, capacity := range []int{1, 4} {
					got, err := MultiBufferedFinite(n, m, rho, 1, capacity)
					if err != nil {
						t.Fatal(err)
					}
					oracleClose(t, got, bufferedFiniteOracle(n, m, rho, 1, capacity),
						fmt.Sprintf("buffered-%d/%s", capacity, name))
				}
			}
		}
	}
}

// oracleClose requires every field within 1e-12 relative of the oracle's.
func oracleClose(t *testing.T, got, want Prediction, context string) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"utilization", got.Utilization, want.Utilization},
		{"throughput", got.Throughput, want.Throughput},
		{"mean_wait", got.MeanWait, want.MeanWait},
		{"mean_response", got.MeanResponse, want.MeanResponse},
		{"mean_queue_len", got.MeanQueueLen, want.MeanQueueLen},
	} {
		if !(math.Abs(f.got-f.want) <= 1e-12*math.Abs(f.want)) {
			t.Errorf("%s: %s = %v, oracle %v", context, f.name, f.got, f.want)
		}
	}
}

// Erlang C at a textbook point: M/M/2 with λ=1, μ=1 (a=1, ρ=0.5) has
// waiting probability exactly 1/3, so Wq = Lq = 1/3.
func TestErlangCTextbookValue(t *testing.T) {
	p, err := MultiBufferedInfinite(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	third := 1.0 / 3
	if !close(p.MeanWait, third, 1e-12) {
		t.Fatalf("M/M/2 Wq = %v, want 1/3", p.MeanWait)
	}
	if !close(p.MeanQueueLen, third, 1e-12) {
		t.Fatalf("M/M/2 Lq = %v, want 1/3", p.MeanQueueLen)
	}
	if !close(p.Utilization, 0.5, 1e-12) || !close(p.Throughput, 1, 1e-12) {
		t.Fatalf("M/M/2 U/X = %v/%v, want 0.5/1", p.Utilization, p.Throughput)
	}
}

// Adding buses at fixed workload must help monotonically: waits fall,
// throughput rises (unbuffered: blocked processors are released
// sooner), and per-bus utilization falls. With m ≥ N no unbuffered
// request can ever queue.
func TestMultiUnbufferedMonotoneInBuses(t *testing.T) {
	const n, lambda, mu = 32, 0.1, 1.0 // single-bus demand Nλ/μ = 3.2
	prev, err := MultiUnbuffered(n, 1, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	predictionsClose(t, prev, unbufferedOracle(n, 1, lambda, mu), 1e-12, "m=1 vs the oracle")
	for _, m := range []int{2, 4, 8, 16} {
		p, err := MultiUnbuffered(n, m, lambda, mu)
		if err != nil {
			t.Fatal(err)
		}
		if !(p.MeanWait < prev.MeanWait) {
			t.Errorf("m=%d: wait %v not below m/2's %v", m, p.MeanWait, prev.MeanWait)
		}
		if !(p.Throughput > prev.Throughput) {
			t.Errorf("m=%d: throughput %v not above m/2's %v", m, p.Throughput, prev.Throughput)
		}
		if !(p.Utilization < prev.Utilization) {
			t.Errorf("m=%d: per-bus utilization %v not below m/2's %v", m, p.Utilization, prev.Utilization)
		}
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Errorf("m=%d: utilization %v outside (0, 1]", m, p.Utilization)
		}
		// Little's law on the waiting room holds for every m (absolute
		// escape: near m = N the queue vanishes and relative error is noise).
		if lq := p.Throughput * p.MeanWait; !close(p.MeanQueueLen, lq, 1e-9) &&
			math.Abs(p.MeanQueueLen-lq) > 1e-12 {
			t.Errorf("m=%d: Lq %v != X·Wq %v", m, p.MeanQueueLen, lq)
		}
		prev = p
	}
	// Large populations must not overflow into NaN (the same rescaled
	// accumulation as Unbuffered); Little's-law consistency must survive.
	for _, big := range []struct{ n, m int }{{200, 2}, {3000, 2}, {4096, 8}} {
		p, err := MultiUnbuffered(big.n, big.m, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(p.Utilization) || math.IsNaN(p.MeanWait) || math.IsNaN(p.MeanQueueLen) {
			t.Fatalf("n=%d m=%d: prediction overflowed to NaN: %+v", big.n, big.m, p)
		}
		if p.Utilization < 0.999999 || p.Utilization > 1 {
			t.Fatalf("n=%d m=%d: saturated per-bus U = %v, want → 1", big.n, big.m, p.Utilization)
		}
	}
	noQueue, err := MultiUnbuffered(8, 8, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(noQueue.MeanWait) > 1e-9 || math.Abs(noQueue.MeanQueueLen) > 1e-9 {
		t.Fatalf("m = N cannot queue: wait=%v qlen=%v", noQueue.MeanWait, noQueue.MeanQueueLen)
	}
	if !close(noQueue.MeanResponse, 1, 1e-9) {
		t.Fatalf("m = N response = %v, want pure service 1", noQueue.MeanResponse)
	}
}

// Stability boundary of the Erlang-C form is Nλ/(mμ), not Nλ/μ: a load
// that overwhelms one bus is fine on four.
func TestMultiBufferedInfiniteStability(t *testing.T) {
	if _, err := MultiBufferedInfinite(16, 1, 0.1, 1); err == nil {
		t.Fatal("offered load 1.6 on one bus accepted")
	}
	if _, err := MultiBufferedInfinite(16, 2, 0.1, 1); err != nil {
		t.Fatalf("1.6 Erlangs on 2 buses is stable (ρ = 0.8), got %v", err)
	}
	p, err := MultiBufferedInfinite(16, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !close(p.Utilization, 0.4, 1e-12) {
		t.Fatalf("ρ = %v, want 1.6/4 = 0.4", p.Utilization)
	}
	for _, m := range []int{0, -2} {
		if _, err := MultiBufferedInfinite(4, m, 0.1, 1); err == nil {
			t.Fatalf("buses = %d accepted", m)
		}
		if _, err := MultiUnbuffered(4, m, 0.1, 1); err == nil {
			t.Fatalf("unbuffered buses = %d accepted", m)
		}
		if _, err := MultiBufferedFinite(4, m, 0.1, 1, 2); err == nil {
			t.Fatalf("finite buses = %d accepted", m)
		}
	}
}

func TestMultiBufferedFinite(t *testing.T) {
	if _, err := MultiBufferedFinite(4, 2, 0.1, 1, 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	// Large buffers converge to Erlang C when stable.
	big, err := MultiBufferedFinite(16, 4, 0.05, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	erlang, err := MultiBufferedInfinite(16, 4, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	predictionsClose(t, big, erlang, 1e-6, "deep finite vs Erlang C")
	// Supercritical load over a deep buffer must stay finite (the
	// rescaled accumulation) with every bus pinned busy.
	deep, err := MultiBufferedFinite(64, 4, 1, 0.0625, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(deep.MeanWait) || math.IsInf(deep.MeanWait, 0) || math.IsNaN(deep.Utilization) {
		t.Fatalf("deep-buffer prediction not finite: %+v", deep)
	}
	if deep.Utilization < 0.999999 || deep.Utilization > 1 {
		t.Fatalf("deep-buffer saturated U = %v, want → 1", deep.Utilization)
	}
	if !close(deep.Throughput, 4*0.0625*deep.Utilization, 1e-9) {
		t.Fatalf("saturated X = %v, want mμU = %v", deep.Throughput, 4*0.0625*deep.Utilization)
	}
}

// The M/G/1 Pollaczek–Khinchine form must degenerate to the M/M/1 model
// exactly at scv = 1: same utilization, throughput, and a bit-identical
// mean wait (the (1+1)/2 factor is exactly 1).
func TestMG1DegeneratesToMM1(t *testing.T) {
	for _, p := range []struct {
		n      int
		lambda float64
		mu     float64
	}{{16, 0.05, 1}, {8, 0.075, 1}, {4, 0.1, 2}} {
		mm1, err := BufferedInfinite(p.n, p.lambda, p.mu)
		if err != nil {
			t.Fatal(err)
		}
		mg1, err := MG1BufferedInfinite(p.n, p.lambda, p.mu, 1)
		if err != nil {
			t.Fatal(err)
		}
		if mg1.MeanWait != mm1.MeanWait {
			t.Errorf("N=%d: M/G/1(scv=1) wait %v not bit-identical to M/M/1's %v",
				p.n, mg1.MeanWait, mm1.MeanWait)
		}
		if mg1.Utilization != mm1.Utilization || mg1.Throughput != mm1.Throughput {
			t.Errorf("N=%d: utilization/throughput diverged: %+v vs %+v", p.n, mg1, mm1)
		}
		if !close(mg1.MeanResponse, mm1.MeanResponse, 1e-12) ||
			!close(mg1.MeanQueueLen, mm1.MeanQueueLen, 1e-12) {
			t.Errorf("N=%d: response/queue diverged: %+v vs %+v", p.n, mg1, mm1)
		}
	}
}

// M/D/1 textbook values: Wq = ρ/(2μ(1−ρ)) — exactly half the M/M/1 wait
// at every load.
func TestMD1TextbookValues(t *testing.T) {
	// ρ = 0.8, μ = 1: Wq = 0.8/(2·0.2) = 2, response 3, Lq = 1.6.
	md1, err := MD1BufferedInfinite(16, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !close(md1.MeanWait, 2, 1e-12) {
		t.Errorf("M/D/1 ρ=0.8 wait = %v, want 2", md1.MeanWait)
	}
	if !close(md1.MeanResponse, 3, 1e-12) {
		t.Errorf("M/D/1 ρ=0.8 response = %v, want 3", md1.MeanResponse)
	}
	if !close(md1.MeanQueueLen, 1.6, 1e-12) {
		t.Errorf("M/D/1 ρ=0.8 Lq = %v, want 1.6", md1.MeanQueueLen)
	}
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		mm1, err := BufferedInfinite(10, rho/10, 1)
		if err != nil {
			t.Fatal(err)
		}
		md1, err := MD1BufferedInfinite(10, rho/10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !close(md1.MeanWait, mm1.MeanWait/2, 1e-12) {
			t.Errorf("ρ=%v: M/D/1 wait %v != half of M/M/1's %v", rho, md1.MeanWait, mm1.MeanWait)
		}
	}
}

// P-K mean wait is linear in (1+c²)/2 at fixed load, and the form must
// reject instability and malformed scv inputs cleanly.
func TestMG1ScalesWithSCVAndRejectsBadInputs(t *testing.T) {
	base, err := MG1BufferedInfinite(16, 0.05, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, scv := range []float64{1, 4, 16} {
		p, err := MG1BufferedInfinite(16, 0.05, 1, scv)
		if err != nil {
			t.Fatal(err)
		}
		if !close(p.MeanWait, base.MeanWait*(1+scv), 1e-12) {
			t.Errorf("scv=%v: wait %v, want (1+c²)·W_D = %v", scv, p.MeanWait, base.MeanWait*(1+scv))
		}
	}
	if _, err := MG1BufferedInfinite(16, 0.0625, 1, 1); err == nil {
		t.Error("ρ = 1 accepted; no steady state exists")
	}
	if _, err := MG1BufferedInfinite(16, 0.1, 1, 1); err == nil {
		t.Error("ρ = 1.6 accepted; no steady state exists")
	}
	for _, scv := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := MG1BufferedInfinite(16, 0.01, 1, scv); err == nil {
			t.Errorf("scv = %v accepted", scv)
		}
	}
}
