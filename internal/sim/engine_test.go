package sim

import (
	"math"
	"testing"
)

func TestEngineFiresInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleAt(3, func() { order = append(order, 3) })
	e.ScheduleAt(1, func() { order = append(order, 1) })
	e.ScheduleAt(2, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	if e.Processed() != 3 {
		t.Fatalf("processed = %d, want 3", e.Processed())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() { times = append(times, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleAt(1, func() { fired++ })
	e.ScheduleAt(5, func() { fired++ })
	e.ScheduleAt(10, func() { fired++ })
	if err := e.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d before horizon 6, want 2", fired)
	}
	if e.Now() != 6 {
		t.Fatalf("clock advanced to %v, want horizon 6", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	// Resuming past the remaining event fires it.
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("fired = %d after second run, want 3", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20 (empty heap advances to horizon)", e.Now())
	}
	// A NaN horizon bounds nothing: it is refused like one before now,
	// firing nothing and leaving the clock alone.
	e.ScheduleAt(30, func() { fired++ })
	if err := e.RunUntil(math.NaN()); err == nil {
		t.Fatal("RunUntil(NaN) = nil, want the horizon-before-now error")
	}
	if fired != 3 || e.Now() != 20 || e.Pending() != 1 {
		t.Fatalf("after RunUntil(NaN): fired %d, clock %v, pending %d; want 3, 20, 1", fired, e.Now(), e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.ScheduleAt(1, func() { fired++; e.Stop() })
	e.ScheduleAt(2, func() { fired++ })
	err := e.RunUntil(10)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after Stop, want 1", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.ScheduleAt(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleAt(5, func() {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling before now did not panic")
		}
	}()
	e.ScheduleAt(1, func() {})
}

// TestEngineReturnContract pins the Run/RunUntil error contract:
// ErrStopped when — and only when — Stop was called from inside an
// event; nil on draining the pending set or reaching the horizon.
func TestEngineReturnContract(t *testing.T) {
	cases := []struct {
		name    string
		run     func(e *Engine) error
		wantErr error
	}{
		{"run-empty", func(e *Engine) error {
			return e.Run()
		}, nil},
		{"run-drains", func(e *Engine) error {
			e.Schedule(1, func() {})
			return e.Run()
		}, nil},
		{"run-stopped", func(e *Engine) error {
			e.Schedule(1, e.Stop)
			e.Schedule(2, func() {})
			return e.Run()
		}, ErrStopped},
		{"rununtil-empty", func(e *Engine) error {
			return e.RunUntil(10)
		}, nil},
		{"rununtil-drains-before-horizon", func(e *Engine) error {
			e.Schedule(1, func() {})
			return e.RunUntil(10)
		}, nil},
		{"rununtil-horizon-with-pending", func(e *Engine) error {
			e.Schedule(1, func() {})
			e.Schedule(20, func() {})
			return e.RunUntil(10)
		}, nil},
		{"rununtil-stopped", func(e *Engine) error {
			e.Schedule(1, e.Stop)
			e.Schedule(2, func() {})
			return e.RunUntil(10)
		}, ErrStopped},
		{"rununtil-stop-at-horizon-event", func(e *Engine) error {
			// Stop fired by the last event inside the horizon still
			// reports ErrStopped, not a clean horizon return.
			e.Schedule(10, e.Stop)
			return e.RunUntil(10)
		}, ErrStopped},
		{"rununtil-resume-after-stop", func(e *Engine) error {
			e.Schedule(1, e.Stop)
			if err := e.RunUntil(10); err != ErrStopped {
				t.Fatalf("first run: err = %v, want ErrStopped", err)
			}
			// A fresh run after a Stop is a clean run again.
			e.Schedule(1, func() {})
			return e.RunUntil(20)
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(NewEngine()); err != tc.wantErr {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestEngineDeterministicTieOrder(t *testing.T) {
	// Two events at the same time must fire in scheduling order, every run.
	for run := 0; run < 10; run++ {
		e := NewEngine()
		var order []string
		e.ScheduleAt(1, func() { order = append(order, "a") })
		e.ScheduleAt(1, func() { order = append(order, "b") })
		e.ScheduleAt(1, func() { order = append(order, "c") })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if order[0] != "a" || order[1] != "b" || order[2] != "c" {
			t.Fatalf("run %d: tie order %v, want [a b c]", run, order)
		}
	}
}
