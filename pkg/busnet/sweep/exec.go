package sweep

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/busnet/busnet/pkg/busnet"
)

// executor runs a planned sweep of points P on the pipeline, for either
// backend kind. A simulated sweep runs reps jobs per point, simulate
// running replication rep of point pt, and reduces a point's
// replications the moment its last one lands, or hands them over
// unreduced (replicate). A model-backend sweep runs one job per point,
// and that job builds the point with model. Either way every job runs
// on the pool of workers, a point with a failed job is never delivered,
// and the error returned is the lowest failed job's.
type executor[P, R, D any] struct {
	plan[P]
	workers  int
	progress *Progress
	// label names a point in a failed job's error.
	label    string
	simulate func(point P, pt, rep int) (R, error)
	reduce   func(point P, runs []R) D
	model    func(backend busnet.Backend, point P) (D, error)
}

// run executes the sweep, handing each finished point to deliver: calls
// are serialized, in completion order.
func (e *executor[P, R, D]) run(deliver func(pt int, point D)) error {
	if e.backend != busnet.BackendSim {
		return (&pipeline[P, D]{
			points:   e.points,
			reps:     1,
			workers:  e.workers,
			progress: e.progress,
			run:      func(point P, _, _ int) (D, error) { return e.model(e.backend, point) },
			deliver:  func(pt int, point []D) { deliver(pt, point[0]) },
			wrapErr: func(pt, _ int, err error) error {
				return fmt.Errorf("sweep: %s backend, %s %d: %w", e.backend, e.label, pt, err)
			},
		}).execute()
	}
	return e.replicate(func(pt int, runs []R) { deliver(pt, e.reduce(e.points[pt], runs)) })
}

// replicate runs a simulated sweep's jobs, handing each point's runs to
// deliver, unreduced and in replication order, the moment its last one
// lands: calls are serialized, in completion order.
func (e *executor[P, R, D]) replicate(deliver func(pt int, runs []R)) error {
	return (&pipeline[P, R]{
		points:   e.points,
		reps:     e.reps,
		workers:  e.workers,
		progress: e.progress,
		run:      e.simulate,
		deliver:  deliver,
		wrapErr: func(pt, rep int, err error) error {
			return fmt.Errorf("sweep: %s %d replication %d: %w", e.label, pt, rep, err)
		},
	}).execute()
}

// pipeline is the execute stage, generic over the point and job-result
// types so that every sweep — flat or topology, simulated or model —
// runs on one worker pool, wired by the executor. It fans the
// point-major job stream (plan order: point p's jobs are
// p·reps … p·reps+reps−1; a model sweep has one per point) across a
// bounded pool, and delivers each point's complete job set the moment
// its last job lands — there is no barrier between points, so
// downstream consumers (the reduce stage, a streaming CLI, the
// optimizer) see results while the pool is still busy.
//
// Determinism is preserved by construction: every job writes only its
// own slot of the run buffer, so the job set handed to deliver is a
// pure function of the spec regardless of workers or completion order.
// Only the ORDER of deliver calls is scheduling-dependent.
type pipeline[P, R any] struct {
	points   []P
	reps     int
	workers  int
	progress *Progress
	// run executes one job: replication rep of points[pt].
	run func(point P, pt, rep int) (R, error)
	// deliver receives a completed point's replication set as soon as
	// the last replication lands. Calls are serialized (never
	// concurrent) but arrive in completion order, not point order. A
	// point with any failed replication is never delivered.
	deliver func(pt int, runs []R)
	// wrapErr formats a failed job's error for this sweep flavor.
	wrapErr func(pt, rep int, err error) error
}

// execute drains the job stream and returns the first failing job's
// error in job order — scheduling never picks which error wins. All
// jobs run to completion even when one fails, matching the pre-pipeline
// barrier semantics, so a failed sweep leaves a fully-counted Progress
// rather than a truncated one.
//
// Workers claim jobs from a shared atomic cursor, so claiming costs one
// atomic add rather than a channel handoff. The calling goroutine is one
// of the workers: a single-worker sweep runs every job inline and starts
// no goroutine at all.
func (pl *pipeline[P, R]) execute() error {
	nJobs := len(pl.points) * pl.reps
	workers := pl.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nJobs {
		workers = nJobs
	}
	if pl.progress != nil {
		pl.progress.begin(len(pl.points), pl.reps, workers)
	}
	runs := make([]R, nJobs)
	remaining := make([]atomic.Int64, len(pl.points))
	failed := make([]atomic.Bool, len(pl.points))
	for i := range remaining {
		remaining[i].Store(int64(pl.reps))
	}
	// deliverMu serializes deliver so consumers never need their own
	// locking; the atomic countdown guarantees exactly one worker — the
	// one finishing the point's last replication — attempts delivery.
	var deliverMu sync.Mutex
	// failMu guards the lowest failing job seen so far and its error;
	// every job runs, so the lowest index wins whatever order the
	// failures land in.
	var (
		failMu  sync.Mutex
		failJob = nJobs
		failErr error
	)
	var cursor atomic.Int64
	work := func() {
		for {
			j := int(cursor.Add(1) - 1)
			if j >= nJobs {
				return
			}
			pl.progress.jobStart()
			pt, rep := j/pl.reps, j%pl.reps
			var err error
			runs[j], err = pl.run(pl.points[pt], pt, rep)
			if err != nil {
				// Store precedes the countdown below, so whichever
				// worker sees the count hit zero also sees the failure.
				failed[pt].Store(true)
				failMu.Lock()
				if j < failJob {
					failJob, failErr = j, err
				}
				failMu.Unlock()
			}
			last := remaining[pt].Add(-1) == 0
			if last && !failed[pt].Load() && pl.deliver != nil {
				deliverMu.Lock()
				pl.deliver(pt, runs[pt*pl.reps:(pt+1)*pl.reps])
				deliverMu.Unlock()
			}
			pl.progress.jobDone(last)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if failErr != nil {
		return pl.wrapErr(failJob/pl.reps, failJob%pl.reps, failErr)
	}
	return nil
}
