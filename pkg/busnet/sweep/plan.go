package sweep

import (
	"fmt"

	"github.com/busnet/busnet/pkg/busnet"
)

// Job is one work unit of the execute stage: the (config, seed, stream)
// triple identifying replication Rep of point Point. Config is the
// point's config with Stream already offset by Rep — the exact value the
// simulator evaluates — so a Job is self-contained: hash it, ship it to
// another worker or process, or look it up in a Cache, and the result is
// bit-identical wherever it runs.
type Job struct {
	Point  int
	Rep    int
	Config busnet.Config
}

// Jobs expands the spec into its full work-unit stream in execution
// order (point-major, replications inner) — the plan stage exposed for
// callers that want to inspect or shard the workload without running
// it. The sweep's determinism contract lives here: the job list is a
// pure function of the spec, independent of workers, cache state, or
// scheduling.
func Jobs(spec Spec) ([]Job, error) {
	points, reps, backend, err := plan(spec)
	if err != nil {
		return nil, err
	}
	if backend != busnet.BackendSim {
		// Model backends evaluate each point once, with no RNG at all.
		reps = 1
	}
	jobs := make([]Job, 0, len(points)*reps)
	for p, cfg := range points {
		for r := 0; r < reps; r++ {
			job := Job{Point: p, Rep: r, Config: cfg}
			job.Config.Stream += uint64(r)
			jobs = append(jobs, job)
		}
	}
	return jobs, nil
}

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
	// The simulator also bounds the population, which Validate does not:
	// refuse an oversized point here, before any other point's jobs run.
	for i, cfg := range points {
		if cfg.Processors > busnet.MaxSimProcessors {
			return nil, 0, "", fmt.Errorf("sweep: point %d invalid: %d processors exceeds the discrete-event backend's %d-station bound; use the %q backend",
				i, cfg.Processors, busnet.MaxSimProcessors, busnet.BackendFluid)
		}
	}
	reps = spec.Replications
	if reps <= 0 {
		reps = DefaultReplications
	}
	return points, reps, backend, nil
}
