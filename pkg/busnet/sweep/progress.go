package sweep

import "sync/atomic"

// Progress is a live, lock-free view of a running sweep. Attach a zero
// Progress to Spec.Progress (or TopologySpec.Progress) before calling
// Run, then poll Snapshot from any goroutine — a CLI reporter ticking
// on stderr, a test asserting liveness — while the sweep executes.
//
// The tracker is pure bookkeeping on the worker path: two atomic adds
// per job, no locks, no channels, and it never influences scheduling or
// results — a sweep with a Progress attached is bit-identical to one
// without. Rates and ETAs are deliberately left to the consumer: the
// tracker records counts only, and a reporter derives throughput from
// successive snapshots against its own clock.
type Progress struct {
	totalJobs   atomic.Int64
	doneJobs    atomic.Int64
	totalPoints atomic.Int64
	donePoints  atomic.Int64
	active      atomic.Int64
	workers     atomic.Int64
}

// ProgressSnapshot is one consistent-enough reading of the counters.
// Fields are read individually (not under a lock), so a snapshot taken
// mid-job can be transiently off by a job between fields — fine for
// display, not for invariant checks while workers run.
type ProgressSnapshot struct {
	// TotalJobs and DoneJobs count (point, replication) jobs.
	TotalJobs, DoneJobs int64
	// TotalPoints and DonePoints count grid points; a point is done when
	// its last replication finishes.
	TotalPoints, DonePoints int64
	// Active is the number of jobs executing right now; Workers is the
	// pool size, so Active/Workers is live occupancy.
	Active, Workers int64
}

// Snapshot returns the current counters.
func (p *Progress) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		TotalJobs:   p.totalJobs.Load(),
		DoneJobs:    p.doneJobs.Load(),
		TotalPoints: p.totalPoints.Load(),
		DonePoints:  p.donePoints.Load(),
		Active:      p.active.Load(),
		Workers:     p.workers.Load(),
	}
}

// Done reports whether every job has finished (false before begin).
func (p *Progress) Done() bool {
	t := p.totalJobs.Load()
	return t > 0 && p.doneJobs.Load() == t
}

// begin resets the tracker for a sweep of points×reps jobs on workers
// goroutines. Called by Run/RunTopology before the pool starts.
func (p *Progress) begin(points, reps, workers int) {
	p.totalJobs.Store(int64(points * reps))
	p.doneJobs.Store(0)
	p.totalPoints.Store(int64(points))
	p.donePoints.Store(0)
	p.active.Store(0)
	p.workers.Store(int64(workers))
}

// jobStart marks one job as executing. Nil-safe so the worker loop can
// call it unconditionally.
func (p *Progress) jobStart() {
	if p != nil {
		p.active.Add(1)
	}
}

// jobDone marks one job finished; pointDone says it was its point's
// last, which the caller's own countdown decides.
func (p *Progress) jobDone(pointDone bool) {
	if p == nil {
		return
	}
	p.active.Add(-1)
	p.doneJobs.Add(1)
	if pointDone {
		p.donePoints.Add(1)
	}
}
