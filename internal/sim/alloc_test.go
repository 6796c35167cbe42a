package sim

import "testing"

// The zero-allocation contract: once the engine's event pool and the
// wheel's bucket array reach their steady-state working set, the hot
// path — schedule, fire, and every statistics update — must not touch
// the heap. These locks fail the build the moment a closure, interface
// conversion, or growing append sneaks back in.

// TestAllocsScheduleFire locks the full engine cycle: Schedule an event
// and fire it via RunUntil, the per-event path of every model.
func TestAllocsScheduleFire(t *testing.T) {
	e := NewEngine()
	var fire func()
	fire = func() {}
	// Warm up: grow the pool and the wheel to steady state.
	for i := 0; i < 100; i++ {
		e.Schedule(1, fire)
	}
	if err := e.RunUntil(e.Now() + 1000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fire)
		if err := e.RunUntil(e.Now() + 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("schedule+fire cycle allocates %v per run, want 0", avg)
	}
}

// TestAllocsStats locks every statistics collector the bus model calls
// per event: the Welford tally, the time-weighted integrator, and the
// streaming histogram.
func TestAllocsStats(t *testing.T) {
	t.Run("Tally.Add", func(t *testing.T) {
		var tl Tally
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			tl.Add(x)
		}); avg != 0 {
			t.Fatalf("Tally.Add allocates %v per run, want 0", avg)
		}
	})
	t.Run("TimeWeighted.Set", func(t *testing.T) {
		var w TimeWeighted
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			w.Set(x, x)
		}); avg != 0 {
			t.Fatalf("TimeWeighted.Set allocates %v per run, want 0", avg)
		}
	})
	t.Run("Histogram.Add", func(t *testing.T) {
		var h Histogram
		x := 0.0
		if avg := testing.AllocsPerRun(1000, func() {
			x += 0.5
			h.Add(x)
		}); avg != 0 {
			t.Fatalf("Histogram.Add allocates %v per run, want 0", avg)
		}
	})
}
