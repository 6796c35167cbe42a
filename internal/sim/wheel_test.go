package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refQueue is the engine's test oracle: the pending events in a slice
// kept sorted by (t, seq), with seq assigned in schedule order —
// obviously correct, at O(n) per insertion.
type refQueue struct {
	evs []refEvent
	seq uint64
}

// refEvent is one event as the reference queue orders it.
type refEvent struct {
	t   float64
	seq uint64
}

// push adds an event at time t. Its seq is the largest yet, so it goes
// after every event with time ≤ t.
func (q *refQueue) push(t float64) refEvent {
	ev := refEvent{t, q.seq}
	q.seq++
	i := sort.Search(len(q.evs), func(i int) bool { return t < q.evs[i].t })
	q.evs = slices.Insert(q.evs, i, ev)
	return ev
}

// popLE removes and returns the earliest event when its time is ≤ limit.
func (q *refQueue) popLE(limit float64) (refEvent, bool) {
	if len(q.evs) == 0 || q.evs[0].t > limit {
		return refEvent{}, false
	}
	ev := q.evs[0]
	q.evs = slices.Delete(q.evs, 0, 1)
	return ev, true
}

// refPair drives an Engine and a refQueue through the same operations
// and asserts they stay observably identical: each run fires the event
// the reference pops, at its time, or fires nothing when the reference
// has nothing due; the clocks and pending counts agree; and the wheel's
// minimum is the reference's head. Every callback records its event
// and stops the engine, so each Run or RunUntil fires at most one.
type refPair struct {
	t     *testing.T
	e     *Engine
	ref   refQueue
	fired []refEvent
}

func newRefPair(t *testing.T) *refPair { return &refPair{t: t, e: NewEngine()} }

// schedule schedules an event delay from now on both sides.
func (p *refPair) schedule(delay float64) {
	ev := p.ref.push(p.e.Now() + delay)
	p.e.Schedule(delay, func() {
		p.fired = append(p.fired, ev)
		p.e.Stop()
	})
}

// run fires the next event due by limit: Run for an infinite limit,
// RunUntil otherwise.
func (p *refPair) run(limit float64) {
	p.t.Helper()
	want, due := p.ref.popLE(limit)
	n, now := len(p.fired), p.e.Now()
	var err error
	if math.IsInf(limit, 1) {
		err = p.e.Run()
	} else {
		err = p.e.RunUntil(limit)
		now = limit
	}
	switch {
	case due && (len(p.fired) != n+1 || p.fired[n] != want || err != ErrStopped):
		p.t.Fatalf("run(%v): fired %v (err %v), reference pops %+v", limit, p.fired[n:], err, want)
	case due && p.e.Now() != want.t:
		p.t.Fatalf("run(%v): fired %+v with the clock at %v", limit, want, p.e.Now())
	case !due && (len(p.fired) != n || err != nil):
		p.t.Fatalf("run(%v): fired %v (err %v), reference has nothing due", limit, p.fired[n:], err)
	case !due && p.e.Now() != now:
		p.t.Fatalf("run(%v) fired nothing and left the clock at %v, want %v", limit, p.e.Now(), now)
	}
	if got, want := p.e.pending(), len(p.ref.evs); got != want {
		p.t.Fatalf("after run(%v): engine pending %d, reference %d", limit, got, want)
	}
}

// peek returns the earliest pending event without removing it, or 0
// when the wheel is empty: the minimum of the first non-empty bucket at
// or after the frontier, or the overflow head when the window is empty.
// It moves nothing, so it views the wheel exactly as the next popLE
// finds it, before that pop slides the window.
func (w *wheel) peek() int32 {
	if w.count == 0 {
		if len(w.over) == 0 {
			return 0
		}
		return w.over[0]
	}
	s := w.nextBucket() & (len(w.heads) - 1)
	best := w.heads[s]
	for i := w.ev[best].next; i != 0; i = w.ev[i].next {
		if w.less(i, best) {
			best = i
		}
	}
	return best
}

// peek checks the wheel's minimum against the reference's head.
func (p *refPair) peek() {
	p.t.Helper()
	i := p.e.w.peek()
	if len(p.ref.evs) == 0 {
		if i != 0 {
			p.t.Fatalf("peek on an empty engine = event %d", i)
		}
		return
	}
	head := p.ref.evs[0]
	if i == 0 || p.e.w.ev[i].t != head.t || p.e.w.ev[i].seq != head.seq {
		p.t.Fatalf("peek = event %d %+v, reference head %+v", i, p.e.w.ev[i], head)
	}
}

// drain fires everything pending, then requires both sides empty.
func (p *refPair) drain() {
	for len(p.ref.evs) > 0 {
		p.run(math.Inf(1))
	}
	p.run(math.Inf(1))
}

// TestWheelMatchesHeapRandom runs long random operation sequences over
// several time regimes — heavy ties, fractional spreads, far-future
// outliers that force the overflow level, delays just past the window's
// end, and exact-boundary values — asserting the engine fires the exact
// (t, seq) order of the reference queue.
func TestWheelMatchesHeapRandom(t *testing.T) {
	regimes := []struct {
		name  string
		delay func(r *rand.Rand, w *wheel) float64
	}{
		{"quantized-ties", func(r *rand.Rand, _ *wheel) float64 {
			return float64(r.Intn(8))
		}},
		{"fractional", func(r *rand.Rand, _ *wheel) float64 {
			return r.Float64() * 20
		}},
		{"far-future-mix", func(r *rand.Rand, _ *wheel) float64 {
			if r.Intn(10) == 0 {
				return r.Float64() * 1e9
			}
			return r.Float64()
		}},
		// Half the delays land within an eighth of a window span past
		// the window's end: each parks in the overflow level while the
		// window holds events, and migrates as the frontier slides its
		// end past it rather than when the window drains.
		{"just-past-window", func(r *rand.Rand, w *wheel) float64 {
			span := float64(len(w.heads)) * w.width
			if r.Intn(2) == 0 {
				return span * (1 + r.Float64()/8)
			}
			return span * r.Float64()
		}},
		{"extremes", func(r *rand.Rand, _ *wheel) float64 {
			switch r.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.MaxFloat64
			case 2:
				return 0 // exact tie with the frontier
			default:
				return r.Float64() * 1e-9
			}
		}},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				r := rand.New(rand.NewSource(seed))
				p := newRefPair(t)
				for op := 0; op < 4000; op++ {
					switch r.Intn(10) {
					case 0, 1, 2, 3, 4:
						p.schedule(reg.delay(r, &p.e.w))
					case 5, 6:
						p.run(math.Inf(1))
					case 7:
						p.run(p.e.Now() + r.Float64()*5)
					case 8:
						p.peek()
					default:
						p.schedule(0)
					}
				}
				p.drain()
			}
		})
	}
}

// TestWheelRebaseAfterDrain empties the window completely, then
// schedules again — the path where the empty window must re-anchor onto
// the overflow level's head and where an adversarial width (all gaps
// zero) must not stall the pop.
func TestWheelRebaseAfterDrain(t *testing.T) {
	p := newRefPair(t)
	// A same-time burst: the revolution's mean inter-fire gap is zero.
	for range 100 {
		p.schedule(5)
	}
	for range 100 {
		p.run(math.Inf(1))
	}
	// Far-future spread lands in overflow and must migrate when the
	// window re-anchors.
	for i := range 100 {
		p.schedule(1e12 + float64(i%7))
	}
	p.drain()
}

// TestWheelWidthAfterIdleJump drains the wheel, idles to t = 1000 and
// then runs four self-rescheduling events two time units apart, so the
// next pop jumps an empty window to the overflow head. The revolution
// after the jump starts at the jump: were it to start at the pop before
// it, its mean gap would include the idle stretch, and the width stayed
// at 32.2 for the rest of the run. With fewer than wheelLongChain
// pending events nothing else corrects it, and every pop scans them all.
func TestWheelWidthAfterIdleJump(t *testing.T) {
	e := NewEngine()
	for range 100 {
		e.Schedule(1, func() {})
	}
	if err := e.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	var tick func()
	tick = func() { e.Schedule(8, tick) }
	for i := range 4 {
		e.Schedule(float64(2*i), tick)
	}
	if err := e.RunUntil(1300); err != nil {
		t.Fatal(err)
	}
	// Half the gap of 2 between fires, within 2×.
	if w := e.w.width; w < 0.5 || w > 2 {
		t.Errorf("width %v after the idle jump, want within 2× of 1", w)
	}
}

// TestWheelInfiniteTimes pins the NaN-arithmetic corner: with only
// +Inf events pending the window re-anchors at an infinite origin,
// bucket positions are NaN, and the wheel must still fire every event
// in seq order.
func TestWheelInfiniteTimes(t *testing.T) {
	p := newRefPair(t)
	for range 10 {
		p.schedule(math.Inf(1))
	}
	p.schedule(3) // a finite event behind the infinite ones fires first
	p.drain()
}

// refEngine runs callbacks in the reference queue's order: the oracle
// for whole trajectories.
type refEngine struct {
	q   refQueue
	fns map[uint64]func()
	now float64
}

func (r *refEngine) Now() float64 { return r.now }

func (r *refEngine) Schedule(delay float64, fn func()) { r.fns[r.q.push(r.now+delay).seq] = fn }

func (r *refEngine) Run() error {
	for {
		ev, ok := r.q.popLE(math.Inf(1))
		if !ok {
			return nil
		}
		r.now = ev.t
		fn := r.fns[ev.seq]
		delete(r.fns, ev.seq)
		fn()
	}
}

// TestWheelGapScaleSwitch switches the delay scale between 1e-4 and
// 1e2 every 3000 operations, with events of the old scale still
// pending. The re-estimated width then moves by orders of magnitude,
// so the window is rebuilt around events in its buckets, while within
// a phase revolutions also end with the geometry kept; the engine must
// fire the reference order throughout. Schedules and pops are equally
// likely, so the pending set keeps emptying the frontier's bucket and
// the frontier keeps moving.
func TestWheelGapScaleSwitch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := newRefPair(t)
	w := &p.e.w
	rebuilt := 0 // rebuilds that re-placed bucketed events
	kept := 0    // revolutions that ended without a rebuild
	for phase := range 8 {
		scale := []float64{1e-4, 1e2}[phase%2]
		for range 3000 {
			bucketed, rebases, revEnd := w.count, w.nRebases, w.revEnd
			if r.Intn(2) == 0 {
				p.schedule(scale * r.ExpFloat64())
			} else {
				p.run(math.Inf(1))
			}
			if w.nRebases != rebases && bucketed > 0 {
				rebuilt++
			}
			if w.nRebases == rebases && w.revEnd != revEnd {
				kept++
			}
		}
	}
	p.drain()
	if rebuilt == 0 || kept == 0 {
		t.Fatalf("%d rebuilds found events in the buckets and %d revolutions ended without one; want both > 0", rebuilt, kept)
	}
}

// TestEngineWheelMatchesHeapTrajectory runs the same self-scheduling
// workload — every firing schedules one to three more, at delays from
// ties to far-future outliers — on the engine and on the reference
// engine, and requires bit-identical fire trajectories.
func TestEngineWheelMatchesHeapTrajectory(t *testing.T) {
	run := func(e interface {
		Now() float64
		Schedule(float64, func())
		Run() error
	}) []float64 {
		r := rand.New(rand.NewSource(42))
		var trace []float64
		var tick func()
		tick = func() {
			trace = append(trace, e.Now())
			if len(trace) < 5000 {
				e.Schedule(r.Float64()*float64(1+r.Intn(100)), tick)
				if r.Intn(4) == 0 {
					e.Schedule(r.Float64()*10, tick)
				}
				if r.Intn(50) == 0 {
					e.Schedule(r.Float64()*1e6, tick)
				}
			}
		}
		e.Schedule(1, tick)
		e.Schedule(1, tick)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	engTrace := run(NewEngine())
	refTrace := run(&refEngine{fns: map[uint64]func(){}})
	if len(engTrace) != len(refTrace) {
		t.Fatalf("trajectory lengths differ: engine %d, reference %d", len(engTrace), len(refTrace))
	}
	for i := range engTrace {
		if engTrace[i] != refTrace[i] {
			t.Fatalf("trajectories diverge at fire %d: engine t=%v, reference t=%v",
				i, engTrace[i], refTrace[i])
		}
	}
}

// FuzzEngineMatchesReference feeds arbitrary byte strings as operation
// scripts to the engine-versus-reference driver. Each byte pair is one
// operation: the first selects schedule near / run / run until a limit
// / peek, schedule far or schedule at +Inf, the second supplies the
// operand (a delay or a limit offset).
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x40, 0x00})
	f.Add([]byte{0x01, 0xFF, 0x01, 0xFF, 0x40, 0x00, 0x40, 0x00})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 0x80, 0x02, 0xC0, 0x01})
	f.Add([]byte{0xC1, 0xFF, 0x00, 0x03, 0xC1, 0x10, 0x40, 0x00, 0xC0, 0x00})
	// The window drains while a far finite head waits in the overflow
	// level: a run limited short of it fires nothing, then one without
	// a limit re-anchors the window onto it, and a near schedule lands
	// in the re-anchored window.
	f.Add([]byte{0x00, 0x02, 0xC1, 0xFF, 0xC1, 0x40, 0x40, 0x00, 0x80, 0x10, 0xC0, 0x00,
		0x40, 0x00, 0x00, 0x07, 0x40, 0x00, 0x40, 0x00, 0x40, 0x00})
	// +Inf heads: a run limited short of them fires only the finite
	// event; the drain then re-anchors onto each +Inf head in turn.
	f.Add([]byte{0xC3, 0x00, 0x00, 0x04, 0xC3, 0x00, 0x80, 0x40, 0xC0, 0x00, 0x40, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		p := newRefPair(t)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			switch op >> 6 {
			case 0: // near now, quantized to force ties
				p.schedule(float64(arg % 16))
			case 1:
				p.run(math.Inf(1))
			case 2:
				p.run(p.e.Now() + float64(arg)/8)
			default:
				switch op & 3 {
				case 1: // beyond the window: the overflow level
					p.schedule(float64(arg) * 997)
				case 3:
					p.schedule(math.Inf(1))
				default:
					p.peek()
				}
			}
		}
		p.drain()
	})
}

// overflowHeap returns a wheel whose overflow heap holds events at the
// given times, pushed in order, each with its push index as seq.
func overflowHeap(times []float64) *wheel {
	w := &NewEngine().w
	for k, tm := range times {
		w.ev = append(w.ev, event{t: tm, seq: uint64(k)})
		w.overPush(int32(len(w.ev) - 1))
	}
	return w
}

// drainOverflow pops the overflow heap empty, returning its records in
// pop order.
func drainOverflow(w *wheel) []event {
	var out []event
	for len(w.over) > 0 {
		out = append(out, w.ev[w.over[0]])
		w.overPop()
	}
	return out
}

// TestHeapOrdering drains the wheel's overflow heap in time order,
// whatever order the times arrive in.
func TestHeapOrdering(t *testing.T) {
	cases := []struct {
		name  string
		times []float64
	}{
		{"empty", nil},
		{"single", []float64{5}},
		{"ascending", []float64{1, 2, 3, 4, 5}},
		{"descending", []float64{5, 4, 3, 2, 1}},
		{"interleaved", []float64{3, 1, 4, 1.5, 9, 2.6, 5.3}},
		{"duplicates", []float64{2, 2, 1, 2, 1, 3, 3}},
		{"negative-and-zero", []float64{0, -1, 2, -3, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drainOverflow(overflowHeap(tc.times))
			want := slices.Clone(tc.times)
			sort.Float64s(want)
			if len(got) != len(want) {
				t.Fatalf("drained %d events, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].t != want[i] {
					t.Fatalf("pop %d = %v, want %v (full: %v)", i, got[i].t, want[i], got)
				}
			}
		})
	}
}

// TestHeapTieBreakByInsertionOrder requires equal times to leave the
// overflow heap in push order.
func TestHeapTieBreakByInsertionOrder(t *testing.T) {
	cases := []struct {
		name  string
		times []float64 // all pushes, in order; equal times must pop FIFO
	}{
		{"all-equal", []float64{7, 7, 7, 7, 7}},
		{"two-groups", []float64{3, 1, 3, 1, 3, 1}},
		{"ties-around-distinct", []float64{2, 5, 2, 0, 5, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := drainOverflow(overflowHeap(tc.times))
			for i := 1; i < len(got); i++ {
				a, b := got[i-1], got[i]
				if b.t < a.t || (b.t == a.t && b.seq < a.seq) {
					t.Fatalf("pop %d: (%v, seq %d) after (%v, seq %d)", i, b.t, b.seq, a.t, a.seq)
				}
			}
		})
	}
}

// TestHeapPeek checks that the overflow heap's root — what an empty
// window re-anchors onto — is the (t, seq) minimum after every push
// and pop of a random sequence heavy with ties.
func TestHeapPeek(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	w := overflowHeap(nil)
	var live []event
	for op := range 5000 {
		if len(live) > 0 && r.Intn(3) == 0 {
			w.overPop()
			live = live[1:]
		} else {
			ev := event{t: float64(r.Intn(50)), seq: uint64(op)}
			w.ev = append(w.ev, ev)
			w.overPush(int32(len(w.ev) - 1))
			i := sort.Search(len(live), func(i int) bool { return ev.t < live[i].t })
			live = slices.Insert(live, i, ev)
		}
		if len(w.over) != len(live) {
			t.Fatalf("op %d: heap holds %d events, want %d", op, len(w.over), len(live))
		}
		if len(live) > 0 {
			if root := w.ev[w.over[0]]; root.t != live[0].t || root.seq != live[0].seq {
				t.Fatalf("op %d: root (%v, seq %d), minimum (%v, seq %d)", op, root.t, root.seq, live[0].t, live[0].seq)
			}
		}
	}
}
