package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// firing is one fired event as a script run observes it: its schedule
// order, which is its seq, and its time.
type firing struct {
	id   int
	time float64
}

// scriptRun is everything a script run can observe of an engine.
type scriptRun struct {
	fired    []firing
	now      float64
	pending  int
	counters EngineCounters
}

// runScript drives e through script, decoded like
// FuzzEngineMatchesReference's operation scripts but through the
// engine's public surface. Each byte pair is one operation: the first
// selects schedule / fire one / fire one up to a limit / schedule a tie
// at now, the second supplies the operand. Every callback records
// itself and stops the engine, so each Run or RunUntil fires at most
// one event. With drain set, the pending set is fired out at the end.
func runScript(e *Engine, script []byte, drain bool) scriptRun {
	var r scriptRun
	scheduled := 0
	schedule := func(d float64) {
		id := scheduled
		scheduled++
		e.Schedule(d, func() {
			r.fired = append(r.fired, firing{id, e.Now()})
			e.Stop()
		})
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		switch op >> 6 {
		case 0: // schedule near now, quantized to force ties, or far out
			d := float64(arg % 16)
			if op&1 == 1 {
				d = float64(arg) * 997 // beyond the window: the overflow level
			}
			schedule(d)
		case 1:
			_ = e.Run()
		case 2:
			_ = e.RunUntil(e.Now() + float64(arg)/8)
		default:
			schedule(0)
		}
	}
	for drain && e.pending() > 0 {
		_ = e.Run()
	}
	r.now, r.pending, r.counters = e.Now(), e.pending(), e.Counters()
	return r
}

// countingProbe counts every callback it receives.
type countingProbe struct{ calls int }

func (p *countingProbe) EventScheduled(float64, float64) { p.calls++ }
func (p *countingProbe) EventFired(float64)              { p.calls++ }

// checkResetReplay runs dirty on an engine with a probe attached,
// leaving whatever it left pending, Resets it, and requires script to
// then fire exactly what it fires on a fresh engine — same events, same
// times — with the same clock, pending count and Counters, pool hits
// and misses included, and no callback reaching the old probe.
func checkResetReplay(t *testing.T, dirty, script []byte) {
	t.Helper()
	want := runScript(NewEngine(), script, true)
	e := NewEngine()
	p := new(countingProbe)
	e.SetProbe(p)
	runScript(e, dirty, false)
	e.Reset()
	before := p.calls
	got := runScript(e, script, true)
	if p.calls != before {
		t.Fatalf("the probe detached by Reset received %d more callbacks", p.calls-before)
	}
	if !slices.Equal(got.fired, want.fired) {
		n := min(len(got.fired), len(want.fired))
		for i := range n {
			if got.fired[i] != want.fired[i] {
				t.Fatalf("firing %d after Reset: %+v, fresh engine %+v", i, got.fired[i], want.fired[i])
			}
		}
		t.Fatalf("%d firings after Reset, %d on a fresh engine", len(got.fired), len(want.fired))
	}
	if got.now != want.now || got.pending != want.pending || got.counters != want.counters {
		t.Fatalf("after Reset: now %v, pending %d, counters %+v\nfresh engine: now %v, pending %d, counters %+v",
			got.now, got.pending, got.counters, want.now, want.pending, want.counters)
	}
}

// randomScript draws an operation script weighted like
// TestWheelMatchesHeapRandom's generator: mostly schedules, so the
// pending set, the wheel's bucket count and the overflow level grow.
func randomScript(r *rand.Rand, ops int) []byte {
	script := make([]byte, 0, 2*ops)
	for range ops {
		var op byte
		switch k := r.Intn(10); {
		case k < 4:
			op = byte(r.Intn(2)) // near or far schedule
		case k < 6:
			op = 1 << 6
		case k < 7:
			op = 2 << 6
		default:
			op = 3 << 6 // tie at now
		}
		script = append(script, op, byte(r.Intn(256)))
	}
	return script
}

// TestEngineResetReplay checks Reset against a fresh engine over random
// scripts, after dirty runs of every size — none, a few operations, and
// long ones that grow the wheel and park events in the overflow level.
// The subtest is named for the engine's scheduler, the timing wheel.
func TestEngineResetReplay(t *testing.T) {
	t.Run("wheel", func(t *testing.T) {
		for seed := int64(1); seed <= 20; seed++ {
			r := rand.New(rand.NewSource(seed))
			dirty := randomScript(r, []int{0, 5, 500, 4000}[seed%4])
			checkResetReplay(t, dirty, randomScript(r, 2000))
		}
	})
}

// FuzzEngineResetReplay is TestEngineResetReplay's fuzz form: a dirty
// script, Reset, then a script that must replay a fresh engine exactly.
func FuzzEngineResetReplay(f *testing.F) {
	f.Add([]byte{}, []byte{0x00, 0x05, 0x40, 0x00})
	f.Add([]byte{0x01, 0xFF, 0x00, 0x03, 0x01, 0x80}, []byte{0x00, 0x01, 0x01, 0x02, 0x40, 0x00, 0xC1, 0x00})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0xC0, 0x00, 0x80, 0x02}, []byte{0x01, 0x10, 0x00, 0x00, 0xC0, 0x00, 0x40, 0x00})
	f.Fuzz(checkResetReplay)
}

// TestEngineResetKeepsMemory locks what Reset is for: once a run has
// grown the event pool and the wheel, a Reset engine repeating that run
// allocates nothing.
func TestEngineResetKeepsMemory(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	run := func() {
		for i := range 1000 {
			e.Schedule(float64(i%97)*3.5, fn)
		}
		if err := e.RunUntil(200); err != nil { // leave some pending
			t.Fatal(err)
		}
		e.Reset()
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("a run on a Reset engine allocates %v times, want 0", avg)
	}
}
