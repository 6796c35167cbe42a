package sim

import (
	"math"
	"testing"
)

func TestRNGStreamDeterminism(t *testing.T) {
	a, b := NewRNGStream(42, 7), NewRNGStream(42, 7)
	for i := 0; i < 1000; i++ {
		if x, y := a.Exp(1.0), b.Exp(1.0); x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
}

// TestRNGReseedMatchesNewStream pins Reseed to NewRNGStream draw for
// draw, whatever the generator drew before: a recycled RNG must be
// indistinguishable from a fresh substream.
func TestRNGReseedMatchesNewStream(t *testing.T) {
	g := NewRNGStream(1, 0)
	for _, p := range []struct {
		seed   int64
		stream uint64
	}{{42, 0}, {42, 1}, {7919, 9}, {-3, 1 << 63}, {42, 0}} {
		for range 17 { // leave g mid-sequence
			g.Uniform()
		}
		g.Reseed(p.seed, p.stream)
		fresh := NewRNGStream(p.seed, p.stream)
		for i := range 1000 {
			var x, y float64
			switch i % 3 {
			case 0:
				x, y = g.Exp(1.5), fresh.Exp(1.5)
			case 1:
				x, y = g.Uniform(), fresh.Uniform()
			default:
				x, y = float64(g.Intn(1000)), float64(fresh.Intn(1000))
			}
			if x != y {
				t.Fatalf("seed %d stream %d: draw %d is %v after Reseed, %v on a new stream", p.seed, p.stream, i, x, y)
			}
		}
	}
	if avg := testing.AllocsPerRun(100, func() { g.Reseed(5, 6) }); avg != 0 {
		t.Fatalf("Reseed allocates %v times, want 0", avg)
	}
}

func TestRNGStreamsDiffer(t *testing.T) {
	// Adjacent stream ids of the same seed must produce unrelated
	// sequences; so must the same stream id under different seeds.
	pairs := []struct {
		name string
		a, b *RNG
	}{
		{"stream 0 vs 1", NewRNGStream(42, 0), NewRNGStream(42, 1)},
		{"stream 1 vs 2", NewRNGStream(42, 1), NewRNGStream(42, 2)},
		{"seed 42 vs 43", NewRNGStream(42, 5), NewRNGStream(43, 5)},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			same := 0
			for i := 0; i < 100; i++ {
				if p.a.Uniform() == p.b.Uniform() {
					same++
				}
			}
			if same > 0 {
				t.Fatalf("%d/100 identical draws between supposedly independent streams", same)
			}
		})
	}
}

// Substream independence: the empirical correlation between paired draws
// of two streams of one seed must vanish. With n = 100k iid pairs the
// sample correlation of truly independent uniforms is ~N(0, 1/√n), so
// |r| < 0.02 is a > 6σ bound — deterministic seeds make this stable.
func TestRNGStreamIndependence(t *testing.T) {
	const n = 100_000
	for _, streams := range [][2]uint64{{0, 1}, {3, 4}, {0, 1 << 40}} {
		a, b := NewRNGStream(42, streams[0]), NewRNGStream(42, streams[1])
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < n; i++ {
			x, y := a.Uniform(), b.Uniform()
			sx += x
			sy += y
			sxx += x * x
			syy += y * y
			sxy += x * y
		}
		cov := sxy/n - (sx/n)*(sy/n)
		vx := sxx/n - (sx/n)*(sx/n)
		vy := syy/n - (sy/n)*(sy/n)
		r := cov / math.Sqrt(vx*vy)
		if math.Abs(r) > 0.02 {
			t.Errorf("streams %v: correlation %v, want ~0", streams, r)
		}
	}
}

func TestRNGStreamZeroMatchesNewRNG(t *testing.T) {
	a, b := NewRNG(99), NewRNGStream(99, 0)
	for i := 0; i < 100; i++ {
		if x, y := a.Uniform(), b.Uniform(); x != y {
			t.Fatalf("NewRNG(seed) must equal stream 0: draw %d %v vs %v", i, x, y)
		}
	}
}
