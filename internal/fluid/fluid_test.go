package fluid

import (
	"fmt"
	"math"
	"testing"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// The direct stationary solutions must agree with the equilibria the
// ODE dynamics relax to — the two routes to the fixed point are
// independent implementations of the same mean-field model.
func TestUnbufferedStationaryMatchesRelaxedODE(t *testing.T) {
	cases := []struct {
		name       string
		n, m       int
		lambda, mu float64
	}{
		{"saturated-single-bus", 64, 1, 0.1, 1},
		{"saturated-multibus", 256, 4, 0.1, 1},
		{"subcritical-many-buses", 64, 16, 0.1, 1},
		{"near-critical", 64, 6, 0.1, 1}, // λ/(λ+μ) = 0.0909, c = 0.09375
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := Unbuffered(tc.n, tc.m, tc.lambda, tc.mu)
			if err != nil {
				t.Fatal(err)
			}
			f, y0 := UnbufferedODE(tc.n, tc.m, tc.lambda, tc.mu)
			y, _, err := Relax(f, y0, RKOptions{}, 1e-9, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			if relErr(y[0], direct.Blocked) > 1e-6 {
				t.Errorf("relaxed blocked fraction %v vs direct %v", y[0], direct.Blocked)
			}
		})
	}
}

func TestBufferedStationaryMatchesRelaxedODE(t *testing.T) {
	cases := []struct {
		name       string
		n, m       int
		lambda, mu float64
		capacity   int
	}{
		{"subcritical", 64, 1, 0.005, 1, 4}, // a = Nλ/μ = 0.32
		{"saturated", 64, 1, 0.03125, 1, 4}, // a = 2
		{"deep-saturation", 64, 1, 0.125, 1, 4},
		{"multibus", 128, 4, 0.05, 1, 3}, // a/m = 1.6 per bus
		{"cap-1", 64, 1, 0.05, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := BufferedFinite(tc.n, tc.m, tc.lambda, tc.mu, tc.capacity)
			if err != nil {
				t.Fatal(err)
			}
			f, y0 := BufferedODE(tc.n, tc.m, tc.lambda, tc.mu, tc.capacity)
			y, _, err := Relax(f, y0, RKOptions{}, 1e-9, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			// Mass conservation through the integration.
			mass := 0.0
			for _, v := range y {
				mass += v
			}
			if math.Abs(mass-1) > 1e-8 {
				t.Fatalf("occupancy mass drifted to %v", mass)
			}
			if relErr(y[len(y)-1], direct.Blocked) > 1e-4 && math.Abs(y[len(y)-1]-direct.Blocked) > 1e-7 {
				t.Errorf("relaxed stalled fraction %v vs direct %v", y[len(y)-1], direct.Blocked)
			}
			// Reconstruct the backlogged fraction and compare throughput.
			u := 0.0
			for _, v := range y[1:] {
				u += v
			}
			c := float64(tc.m) / float64(tc.n)
			xODE := tc.mu * math.Min(float64(tc.n)*u, float64(tc.m))
			_ = c
			if relErr(xODE, direct.Throughput) > 1e-5 {
				t.Errorf("relaxed throughput %v vs direct %v", xODE, direct.Throughput)
			}
		})
	}
}

// Closed-form sanity of the unbuffered fixed point on both branches.
func TestUnbufferedFixedPointBranches(t *testing.T) {
	// Subcritical: enough buses that no station queues in the limit —
	// throughput is the renewal rate N/(1/λ + 1/μ), wait 0.
	p, err := Unbuffered(100, 20, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantX := 100.0 / (1/0.1 + 1/1.0)
	if relErr(p.Throughput, wantX) > 1e-12 {
		t.Errorf("subcritical throughput %v, want %v", p.Throughput, wantX)
	}
	if p.MeanWait != 0 {
		t.Errorf("subcritical fluid wait %v, want 0", p.MeanWait)
	}
	if relErr(p.Blocked, 0.1/1.1) > 1e-12 {
		t.Errorf("subcritical blocked %v, want λ/(λ+μ)", p.Blocked)
	}

	// Saturated: every bus busy, throughput mμ, thinking fraction μc/λ.
	p, err = Unbuffered(64, 2, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization != 1 || relErr(p.Throughput, 2) > 1e-12 {
		t.Errorf("saturated: util %v throughput %v, want 1 and 2", p.Utilization, p.Throughput)
	}
	wantBlocked := 1 - (2.0/64.0)/0.25
	if relErr(p.Blocked, wantBlocked) > 1e-12 {
		t.Errorf("saturated blocked %v, want %v", p.Blocked, wantBlocked)
	}
	// Little's law consistency: response × throughput = stations at bus.
	if relErr(p.MeanResponse*p.Throughput, 64*wantBlocked) > 1e-12 {
		t.Errorf("Little's law violated: W·X = %v, L = %v",
			p.MeanResponse*p.Throughput, 64*wantBlocked)
	}
}

// The buffered solver's self-consistency: the returned quantities obey
// flow balance (issue rate = throughput) and the stall fraction lives
// in [0, 1].
func TestBufferedFlowBalance(t *testing.T) {
	for _, a := range []float64{0.3, 0.9, 1.0, 2, 8} {
		n, m, mu, cap := 256, 1, 1.0, 4
		lambda := a * mu / float64(n)
		p, err := BufferedFinite(n, m, lambda, mu, cap)
		if err != nil {
			t.Fatal(err)
		}
		issueRate := float64(n) * lambda * (1 - p.Blocked)
		if relErr(p.Throughput, issueRate) > 1e-9 {
			t.Errorf("a=%v: throughput %v vs issue rate %v — mass not conserved",
				a, p.Throughput, issueRate)
		}
		if p.Blocked < 0 || p.Blocked > 1 || p.Utilization < 0 || p.Utilization > 1+1e-12 {
			t.Errorf("a=%v: fractions out of range: %+v", a, p)
		}
		if p.MeanWait < 0 || p.MeanQueueLen < -1e-9 {
			t.Errorf("a=%v: negative wait/queue: %+v", a, p)
		}
	}
}

// Monotonicity across load: throughput and stall fraction must be
// nondecreasing in λ — a basic shape property any queueing model holds.
func TestBufferedMonotoneInLoad(t *testing.T) {
	prevX, prevB := -1.0, -1.0
	for _, a := range []float64{0.2, 0.5, 1, 2, 4, 8, 16} {
		p, err := BufferedFinite(512, 2, a*2/512, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		if p.Throughput < prevX-1e-9 || p.Blocked < prevB-1e-9 {
			t.Errorf("a=%v: throughput %v (prev %v) or blocked %v (prev %v) decreased",
				a, p.Throughput, prevX, p.Blocked, prevB)
		}
		prevX, prevB = p.Throughput, p.Blocked
	}
}

// Vanishing load: the buffered solver must keep full relative
// precision where 1 − p_0 and response − 1/μ would cancel. Utilization
// tends to the offered load Nλ/(mμ), and the wait to the one request
// ahead with probability ≈ λ/μ, served in 1/μ: W ≈ λ/μ².
func TestBufferedSmallLoad(t *testing.T) {
	for _, rho := range []float64{1e-6, 1e-9, 1e-12, 1e-15, 1e-20, 1e-100} {
		for _, n := range []int{8, 1000} {
			for _, m := range []int{1, 4} {
				for _, depth := range []int{1, 4} {
					for _, mu := range []float64{1, 2} {
						lambda := rho * mu
						p, err := BufferedFinite(n, m, lambda, mu, depth)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("ρ=%g N=%d m=%d depth=%d μ=%g", rho, n, m, depth, mu)
						for field, v := range map[string]float64{
							"utilization": p.Utilization, "throughput": p.Throughput,
							"mean_wait": p.MeanWait, "mean_response": p.MeanResponse,
							"mean_queue_len": p.MeanQueueLen, "blocked": p.Blocked,
						} {
							if !(v >= 0) || math.IsInf(v, 0) {
								t.Errorf("%s: %s = %v, want finite and ≥ 0", name, field, v)
							}
						}
						if want := float64(n) * lambda / (float64(m) * mu); relErr(p.Utilization, want) > 1e-9 {
							t.Errorf("%s: utilization %v, want Nλ/(mμ) = %v", name, p.Utilization, want)
						}
						if want := lambda / (mu * mu); rho <= 1e-9 && relErr(p.MeanWait, want) > 1e-6 {
							t.Errorf("%s: wait %v, want λ/μ² = %v", name, p.MeanWait, want)
						}
					}
				}
			}
		}
	}
}

func TestFluidValidation(t *testing.T) {
	if _, err := Unbuffered(0, 1, 0.1, 1); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := Unbuffered(8, 0, 0.1, 1); err == nil {
		t.Error("m = 0 accepted")
	}
	if _, err := Unbuffered(8, 1, 0, 1); err == nil {
		t.Error("λ = 0 accepted")
	}
	if _, err := Unbuffered(8, 1, 0.1, math.Inf(1)); err == nil {
		t.Error("μ = ∞ accepted")
	}
	if _, err := BufferedFinite(8, 1, 0.1, 1, 0); err == nil {
		t.Error("capacity = 0 accepted")
	}
	if _, err := BufferedFinite(8, 1, 0.1, 1, MaxCapacity+1); err == nil {
		t.Error("capacity above MaxCapacity accepted")
	}
}

// O(1)-in-N: the fluid solve at N = 10⁶ must produce finite, sensible
// numbers (the cost claim is pinned by BenchmarkFluidSolve; see
// docs/fluid.md).
func TestFluidMillionStations(t *testing.T) {
	p, err := Unbuffered(1_000_000, 4, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Utilization != 1 || relErr(p.Throughput, 4) > 1e-12 {
		t.Errorf("10⁶-station saturated fabric: %+v", p)
	}
	b, err := BufferedFinite(1_000_000, 4, 0.1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Utilization != 1 || b.Blocked <= 0.9 {
		t.Errorf("10⁶-station saturated buffered fabric: %+v", b)
	}
}
