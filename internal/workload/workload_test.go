package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/busnet/busnet/internal/sim"
)

// sample draws n inter-arrivals and returns their mean and squared
// coefficient of variation — the two moments the shape cross-checks key
// on. Fixed seeds make every statistical assertion deterministic.
func sample(t *testing.T, src Source, rng *sim.RNG, n int) (mean, cv2 float64) {
	t.Helper()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := src.Next(rng)
		if !(x > 0) || math.IsInf(x, 1) {
			t.Fatalf("draw %d: Next = %v, want finite and > 0", i, x)
		}
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	return mean, variance / (mean * mean)
}

func mustSource(t *testing.T, spec Spec, baseRate float64) Source {
	t.Helper()
	src, err := spec.NewSource(baseRate)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestSpecValidate(t *testing.T) {
	valid := []struct {
		name string
		spec Spec
		base float64
	}{
		{"zero value is poisson", Spec{}, 0.1},
		{"poisson", Spec{Kind: KindPoisson}, 2},
		{"deterministic", Spec{Kind: KindDeterministic}, 0.5},
		{"mmpp2", Spec{Kind: KindMMPP2, Rate0: 0.1, Rate1: 1, Switch01: 0.01, Switch10: 0.02}, 0.1},
		{"mmpp2 silent state", Spec{Kind: KindMMPP2, Rate0: 0, Rate1: 1, Switch01: 0.01, Switch10: 0.02}, 0},
		{"onoff", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.2, CycleTime: 50}, 0},
		// 190 476 switches per arrival, just under the bound.
		{"mmpp2 just under the switching bound", Spec{Kind: KindMMPP2, Rate0: 1.05e-5, Switch01: 1, Switch10: 1}, 0},
		{"onoff just under the switching bound", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.5, CycleTime: 2.1e-5}, 0},
	}
	for _, tt := range valid {
		t.Run("valid/"+tt.name, func(t *testing.T) {
			if err := tt.spec.Validate(tt.base); err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
		})
	}
	invalid := []struct {
		name string
		spec Spec
		base float64
	}{
		{"unknown kind", Spec{Kind: "pareto"}, 0.1},
		{"poisson zero base", Spec{}, 0},
		{"poisson infinite base", Spec{}, math.Inf(1)},
		{"poisson NaN base", Spec{}, math.NaN()},
		{"deterministic zero base", Spec{Kind: KindDeterministic}, 0},
		{"poisson stray mmpp param", Spec{Kind: KindPoisson, Rate1: 1}, 0.1},
		{"poisson stray onoff param", Spec{Kind: KindPoisson, DutyCycle: 0.5}, 0.1},
		{"deterministic stray param", Spec{Kind: KindDeterministic, CycleTime: 9}, 0.1},
		{"mmpp2 negative rate", Spec{Kind: KindMMPP2, Rate0: -1, Rate1: 1, Switch01: 1, Switch10: 1}, 0.1},
		{"mmpp2 NaN rate", Spec{Kind: KindMMPP2, Rate0: math.NaN(), Rate1: 1, Switch01: 1, Switch10: 1}, 0.1},
		{"mmpp2 both rates zero", Spec{Kind: KindMMPP2, Switch01: 1, Switch10: 1}, 0.1},
		{"mmpp2 zero switch01", Spec{Kind: KindMMPP2, Rate0: 1, Rate1: 2, Switch10: 1}, 0.1},
		{"mmpp2 infinite switch10", Spec{Kind: KindMMPP2, Rate0: 1, Rate1: 2, Switch01: 1, Switch10: math.Inf(1)}, 0.1},
		{"mmpp2 stray onoff param", Spec{Kind: KindMMPP2, Rate0: 1, Rate1: 2, Switch01: 1, Switch10: 1, BurstRate: 3}, 0.1},
		{"onoff zero burst", Spec{Kind: KindOnOff, DutyCycle: 0.5, CycleTime: 10}, 0.1},
		{"onoff duty zero", Spec{Kind: KindOnOff, BurstRate: 1, CycleTime: 10}, 0.1},
		{"onoff duty one", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 1, CycleTime: 10}, 0.1},
		{"onoff zero cycle", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.5}, 0.1},
		{"onoff stray mmpp param", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.5, CycleTime: 10, Switch01: 1}, 0.1},
		// 210 526 switches per arrival, just over the bound; then ratios
		// whose arithmetic underflows to +Inf.
		{"mmpp2 just over the switching bound", Spec{Kind: KindMMPP2, Rate0: 9.5e-6, Switch01: 1, Switch10: 1}, 0},
		{"onoff just over the switching bound", Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.5, CycleTime: 1.9e-5}, 0},
		{"mmpp2 infinite switching ratio", Spec{Kind: KindMMPP2, Rate1: 1e-300, Switch01: 1, Switch10: 1e300}, 0},
		{"onoff infinite switching ratio", Spec{Kind: KindOnOff, BurstRate: 1e-300, DutyCycle: 0.5, CycleTime: 1e-300}, 0},
	}
	for _, tt := range invalid {
		t.Run("invalid/"+tt.name, func(t *testing.T) {
			if tt.spec.Validate(tt.base) == nil {
				t.Fatal("invalid spec accepted")
			}
			if _, err := tt.spec.NewSource(tt.base); err == nil {
				t.Fatal("NewSource accepted an invalid spec")
			}
		})
	}
	err := Spec{Kind: KindMMPP2, Rate0: 1e-7, Switch01: 1, Switch10: 1}.Validate(0)
	if want := "mmpp2 hidden chain switches 2e+07 times per arrival"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name the ratio: %q", err, want)
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), 2.000001e5} {
		if checkSwitches(KindOnOff, ratio) == nil {
			t.Errorf("switching ratio %v accepted", ratio)
		}
	}
	if err := checkSwitches(KindOnOff, 2e5); err != nil {
		t.Errorf("switching ratio at the bound refused: %v", err)
	}
}

// The acceptance criterion behind the whole subsystem: the Poisson
// source must consume the shared RNG exactly like the old hard-coded
// rng.Exp(rate) call, so default configs reproduce pre-workload runs
// bit for bit.
func TestPoissonDrawsBitIdenticalToExp(t *testing.T) {
	const rate = 0.37
	src := mustSource(t, Spec{}, rate)
	a, b := sim.NewRNGStream(42, 3), sim.NewRNGStream(42, 3)
	for i := 0; i < 1000; i++ {
		if got, want := src.Next(a), b.Exp(rate); got != want {
			t.Fatalf("draw %d: Next = %v, Exp = %v; sequences diverged", i, got, want)
		}
	}
}

// Deterministic is the synchronous limit: a single uniform phase draw
// in (0, interval], then the exact interval with zero RNG consumption
// (Next tolerates a nil rng after the phase, which proves it).
func TestDeterministicExactAndDrawFree(t *testing.T) {
	src := mustSource(t, Spec{Kind: KindDeterministic}, 4)
	phase := src.Next(sim.NewRNG(1))
	if !(phase > 0 && phase <= 0.25) {
		t.Fatalf("initial phase = %v, want in (0, 0.25]", phase)
	}
	for i := 0; i < 10; i++ {
		if got := src.Next(nil); got != 0.25 {
			t.Fatalf("draw %d: Next = %v, want exactly 0.25", i, got)
		}
	}
	// Two stations of one run draw different phases from the shared
	// stream — the desynchronization the stationary process relies on.
	rng := sim.NewRNG(7)
	a := mustSource(t, Spec{Kind: KindDeterministic}, 4).Next(rng)
	b := mustSource(t, Spec{Kind: KindDeterministic}, 4).Next(rng)
	if a == b {
		t.Fatalf("two stations drew identical phases %v; lockstep not broken", a)
	}
}

// NewSource builds the source each kind names: its type and its
// parameters, an ON/OFF spec being an MMPP2 whose state 1 is silent.
func TestSourceNames(t *testing.T) {
	for _, tt := range []struct {
		spec Spec
		base float64
		want Source
	}{
		{Spec{}, 1, &poisson{rate: 1}},
		{Spec{Kind: KindDeterministic}, 4, &deterministic{interval: 0.25}},
		{Spec{Kind: KindMMPP2, Rate0: 1, Rate1: 2, Switch01: 1, Switch10: 3}, 0,
			&modulated{rate: [2]float64{1, 2}, leave: [2]float64{1, 3}}},
		{Spec{Kind: KindOnOff, BurstRate: 1, DutyCycle: 0.5, CycleTime: 10}, 0,
			&modulated{rate: [2]float64{1, 0}, leave: [2]float64{0.2, 0.2}}},
	} {
		if got := mustSource(t, tt.spec, tt.base); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: NewSource built %#v, want %#v", tt.spec.Normalized().Kind, got, tt.want)
		}
	}
}

// Reset returns a used source to exactly the state NewSource builds, so
// a reset source draws what a fresh one would.
func TestResetRestoresTheBuiltSource(t *testing.T) {
	for _, tt := range []struct {
		spec Spec
		base float64
	}{
		{Spec{}, 0.2},
		{Spec{Kind: KindDeterministic}, 4},
		{Spec{Kind: KindMMPP2, Rate0: 0.05, Rate1: 1.2, Switch01: 0.02, Switch10: 0.1}, 0},
		{Spec{Kind: KindOnOff, BurstRate: 2, DutyCycle: 0.25, CycleTime: 40}, 0},
	} {
		kind := tt.spec.Normalized().Kind
		src, fresh := mustSource(t, tt.spec, tt.base), mustSource(t, tt.spec, tt.base)
		rng := sim.NewRNG(3)
		for range 50 {
			src.Next(rng)
		}
		Reset(src)
		if !reflect.DeepEqual(src, fresh) {
			t.Errorf("%s: reset left %#v, NewSource builds %#v", kind, src, fresh)
		}
		ra, rb := sim.NewRNG(7), sim.NewRNG(7)
		for i := range 200 {
			if x, y := src.Next(ra), fresh.Next(rb); x != y {
				t.Fatalf("%s: draw %d after Reset: %v, a fresh source drew %v", kind, i, x, y)
			}
		}
	}
}

// Every source is a deterministic function of its spec and the RNG
// stream: equal (spec, seed) must reproduce the exact draw sequence.
func TestSourcesDeterministic(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
		base float64
	}{
		{"poisson", Spec{}, 0.2},
		{"mmpp2", Spec{Kind: KindMMPP2, Rate0: 0.05, Rate1: 1.2, Switch01: 0.02, Switch10: 0.1}, 0},
		{"onoff", Spec{Kind: KindOnOff, BurstRate: 2, DutyCycle: 0.25, CycleTime: 40}, 0},
	}
	for _, tt := range specs {
		t.Run(tt.name, func(t *testing.T) {
			a := mustSource(t, tt.spec, tt.base)
			b := mustSource(t, tt.spec, tt.base)
			ra, rb := sim.NewRNG(7), sim.NewRNG(7)
			for i := 0; i < 2000; i++ {
				if x, y := a.Next(ra), b.Next(rb); x != y {
					t.Fatalf("draw %d: %v vs %v; source not deterministic", i, x, y)
				}
			}
		})
	}
}

// Long-run sample means must converge to 1/MeanRate for every shape —
// the mean-preservation contract the fixed-load burstiness sweeps rely
// on — and the second moment must rank the shapes: deterministic
// (CV²=0) < Poisson (CV²=1) < bursty (CV²>1).
func TestMeanRateAndDispersion(t *testing.T) {
	const n = 400_000
	tests := []struct {
		name     string
		spec     Spec
		base     float64
		wantMean float64 // analytic MeanRate cross-check
		minCV2   float64
		maxCV2   float64
	}{
		{"poisson", Spec{}, 0.5, 0.5, 0.9, 1.1},
		// CV² bound is loose only by the single random phase draw.
		{"deterministic", Spec{Kind: KindDeterministic}, 0.5, 0.5, 0, 1e-4},
		{"mmpp2 equal rates is poisson",
			Spec{Kind: KindMMPP2, Rate0: 0.5, Rate1: 0.5, Switch01: 0.01, Switch10: 0.01}, 0, 0.5, 0.9, 1.1},
		{"mmpp2 bursty",
			Spec{Kind: KindMMPP2, Rate0: 0.1, Rate1: 2, Switch01: 0.005, Switch10: 0.045}, 0,
			(0.045*0.1 + 0.005*2) / 0.05, 1.5, math.Inf(1)},
		{"onoff",
			Spec{Kind: KindOnOff, BurstRate: 2, DutyCycle: 0.25, CycleTime: 100}, 0, 0.5, 1.5, math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.spec.MeanRate(tt.base); math.Abs(got-tt.wantMean) > 1e-12 {
				t.Fatalf("MeanRate = %v, want %v", got, tt.wantMean)
			}
			src := mustSource(t, tt.spec, tt.base)
			mean, cv2 := sample(t, src, sim.NewRNG(42), n)
			if rel := math.Abs(mean-1/tt.wantMean) / (1 / tt.wantMean); rel > 0.02 {
				t.Errorf("sample mean %v vs 1/MeanRate %v (rel err %.3f > 0.02)", mean, 1/tt.wantMean, rel)
			}
			if cv2 < tt.minCV2 || cv2 > tt.maxCV2 {
				t.Errorf("CV² = %v, want in [%v, %v]", cv2, tt.minCV2, tt.maxCV2)
			}
		})
	}
}

func TestDetail(t *testing.T) {
	if d := (Spec{}).Detail(); d != "" {
		t.Errorf("poisson Detail = %q, want empty", d)
	}
	if d := (Spec{Kind: KindDeterministic}).Detail(); d != "" {
		t.Errorf("deterministic Detail = %q, want empty", d)
	}
	mm := Spec{Kind: KindMMPP2, Rate0: 0.1, Rate1: 2, Switch01: 0.01, Switch10: 0.05}
	if got, want := mm.Detail(), "rate0=0.1;rate1=2;switch01=0.01;switch10=0.05"; got != want {
		t.Errorf("mmpp2 Detail = %q, want %q", got, want)
	}
	oo := Spec{Kind: KindOnOff, BurstRate: 1.5, DutyCycle: 0.2, CycleTime: 80}
	if got, want := oo.Detail(), "burst_rate=1.5;duty_cycle=0.2;cycle_time=80"; got != want {
		t.Errorf("onoff Detail = %q, want %q", got, want)
	}
}

func TestNormalized(t *testing.T) {
	if got := (Spec{}).Normalized().Kind; got != KindPoisson {
		t.Fatalf("empty kind normalized to %q, want %q", got, KindPoisson)
	}
	if got := (Spec{Kind: KindOnOff}).Normalized().Kind; got != KindOnOff {
		t.Fatalf("explicit kind rewritten to %q", got)
	}
}
