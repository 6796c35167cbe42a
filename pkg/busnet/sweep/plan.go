package sweep

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// plan is the pipeline's first stage: resolve the backend, produce the
// validated point list (explicit Points when present, else the Grid's
// cartesian expansion), and fix the replication count — DefaultReplications
// for unset simulation sweeps, zero for model backends, which have no
// sampling variability to replicate.
func plan(spec Spec) (points []busnet.Config, reps int, backend busnet.Backend, err error) {
	backend, err = busnet.ParseBackend(string(spec.Backend))
	if err != nil {
		return nil, 0, "", fmt.Errorf("sweep: %w", err)
	}
	if len(spec.Points) > 0 {
		points = spec.Points
		for i, cfg := range points {
			if err := cfg.Validate(); err != nil {
				return nil, 0, "", fmt.Errorf("sweep: point %d invalid: %w", i, err)
			}
		}
	} else {
		points, err = spec.Grid.Points()
		if err != nil {
			return nil, 0, "", err
		}
		if len(points) == 0 {
			return nil, 0, "", fmt.Errorf("sweep: grid expanded to no points")
		}
	}
	if backend != busnet.BackendSim {
		return points, 0, backend, nil
	}
	for i, cfg := range points {
		if err := simBound(i, cfg.Processors); err != nil {
			return nil, 0, "", err
		}
	}
	reps = spec.Replications
	if reps <= 0 {
		reps = DefaultReplications
	}
	return points, reps, backend, nil
}

// simBound refuses point i of a simulated sweep when its processors
// exceed the simulator's station bound, which Validate does not check:
// planning refuses an oversized point before any other point's jobs run.
func simBound(i, processors int) error {
	if processors > busnet.MaxSimProcessors {
		return fmt.Errorf("sweep: point %d invalid: %d processors exceed the discrete-event backend's %d-station bound",
			i, processors, busnet.MaxSimProcessors)
	}
	return nil
}
