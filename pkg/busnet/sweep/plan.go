package sweep

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// plan is a sweep resolved before any job runs: its backend, its
// checked points, and its replication count — Spec's, DefaultReplications
// for an unset simulated sweep, and zero for model backends, which have
// no sampling variability to replicate.
type plan[P any] struct {
	backend busnet.Backend
	points  []P
	reps    int
}

// newPlan is the one planner behind Spec and TopologySpec. It resolves
// the backend; runs each listed point's Validate in index order or,
// when none is listed, takes unlisted's points, which arrive validated
// (a Grid's); refuses, on the simulator, a point whose processors
// exceed the station bound, which Validate does not check; and sets the
// replication count. A refused spec runs no job.
func newPlan[P interface{ Validate() error }](backend busnet.Backend, reps int, listed []P, unlisted func() ([]P, error), processors func(P) int) (plan[P], error) {
	b, err := busnet.ParseBackend(string(backend))
	if err != nil {
		return plan[P]{}, fmt.Errorf("sweep: %w", err)
	}
	for i, p := range listed {
		if err := p.Validate(); err != nil {
			return plan[P]{}, fmt.Errorf("sweep: point %d invalid: %w", i, err)
		}
	}
	points := listed
	if len(points) == 0 {
		if points, err = unlisted(); err != nil {
			return plan[P]{}, err
		}
	}
	if b != busnet.BackendSim {
		return plan[P]{backend: b, points: points}, nil
	}
	for i, p := range points {
		if n := processors(p); n > busnet.MaxSimProcessors {
			return plan[P]{}, fmt.Errorf("sweep: point %d invalid: %d processors exceed the discrete-event backend's %d-station bound",
				i, n, busnet.MaxSimProcessors)
		}
	}
	if reps <= 0 {
		reps = DefaultReplications
	}
	return plan[P]{backend: b, points: points, reps: reps}, nil
}
