package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// pipeline is the execute stage, generic over the point and run types
// so the flat and topology sweeps share one worker pool. It fans the
// point-major job stream (plan order: point p's replications are jobs
// p·reps … p·reps+reps−1) across a bounded pool, and delivers each
// point's complete replication set the moment its last job lands —
// there is no barrier between points, so downstream consumers (the
// reduce stage, a streaming CLI, the optimizer) see results while the
// pool is still busy.
//
// Determinism is preserved by construction: every job writes only its
// own slot of the run buffer, so the replication set handed to deliver
// is a pure function of the spec regardless of workers or completion
// order. Only the ORDER of deliver calls is scheduling-dependent.
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
	errs := make([]error, nJobs)
	remaining := make([]atomic.Int64, len(pl.points))
	failed := make([]atomic.Bool, len(pl.points))
	for i := range remaining {
		remaining[i].Store(int64(pl.reps))
	}
	// deliverMu serializes deliver so consumers never need their own
	// locking; the atomic countdown guarantees exactly one worker — the
	// one finishing the point's last replication — attempts delivery.
	var deliverMu sync.Mutex
	var cursor atomic.Int64
	work := func() {
		for {
			j := int(cursor.Add(1) - 1)
			if j >= nJobs {
				return
			}
			pl.progress.jobStart()
			pt, rep := j/pl.reps, j%pl.reps
			runs[j], errs[j] = pl.run(pl.points[pt], pt, rep)
			if errs[j] != nil {
				// Store precedes the countdown below, so whichever
				// worker sees the count hit zero also sees the failure.
				failed[pt].Store(true)
			}
			if remaining[pt].Add(-1) == 0 && !failed[pt].Load() && pl.deliver != nil {
				deliverMu.Lock()
				pl.deliver(pt, runs[pt*pl.reps:(pt+1)*pl.reps])
				deliverMu.Unlock()
			}
			pl.progress.jobDone(pt)
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
	for j, err := range errs {
		if err != nil {
			return pl.wrapErr(j/pl.reps, j%pl.reps, err)
		}
	}
	return nil
}
