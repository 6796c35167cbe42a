package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
)

func pipelineSpec(workers int) Spec {
	return Spec{
		Grid: Grid{
			Base:       testBase(),
			Processors: []int{4, 8, 12},
		},
		Replications: 3,
		Workers:      workers,
	}
}

// The cache's correctness contract: a warm sweep is byte-identical to a
// cold one. Cold fills the cache (every job a miss, stored under the key
// KeyFor gives the job's config), warm answers every job from it (every
// job a hit, zero new simulations), and both runs marshal to the same
// bytes as a cache-free sweep.
func TestCacheWarmSweepIsByteIdenticalToCold(t *testing.T) {
	spec := pipelineSpec(3)
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	spec.Cache = cache
	cold, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	jobs := uint64(3 * 3)
	if cache.Misses() != jobs || cache.Hits() != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", cache.Hits(), cache.Misses(), jobs)
	}
	// The sweep keys each job exactly as KeyFor keys the job's config.
	points, err := spec.Grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	for p, cfg := range points {
		for rep := range spec.Replications {
			cfg.Stream = points[p].Stream + uint64(rep)
			if key, err := KeyFor(cfg); err != nil || cache.m[key] == nil {
				t.Errorf("point %d replication %d: no entry under KeyFor's key (%v)", p, rep, err)
			}
		}
	}
	warm, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != jobs || cache.Misses() != jobs {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/%d", cache.Hits(), cache.Misses(), jobs, jobs)
	}
	enc := func(r Result) []byte {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(enc(plain), enc(cold)) {
		t.Error("cold cached run differs from cache-free run")
	}
	if !bytes.Equal(enc(plain), enc(warm)) {
		t.Error("warm cached run differs from cache-free run")
	}
}

// Common random numbers across sweeps: the cache keys on the exact
// (config-hash, seed, stream) triple, so a second sweep sharing points
// with the first reuses their jobs and only simulates the new ones.
func TestCacheReusesSharedPointsAcrossSweeps(t *testing.T) {
	cache := NewCache()
	first := pipelineSpec(2)
	first.Grid.Processors = []int{4, 8}
	first.Cache = cache
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 6 {
		t.Fatalf("first sweep misses = %d, want 6", cache.Misses())
	}
	second := pipelineSpec(2)
	second.Grid.Processors = []int{8, 12} // 8 shared, 12 new
	second.Cache = cache
	if _, err := Run(second); err != nil {
		t.Fatal(err)
	}
	if hits := cache.Hits(); hits != 3 {
		t.Errorf("shared point replications hit = %d, want 3", hits)
	}
	if misses := cache.Misses(); misses != 9 {
		t.Errorf("total misses = %d, want 9 (6 first sweep + 3 new point)", misses)
	}
}

// RunStream delivers every point exactly once, each bit-identical to
// Run's reduction of the same point — whatever order the pool completes
// them in — and Spec.Points runs an explicit list without a grid.
func TestRunStreamDeliversEveryPointOnce(t *testing.T) {
	base := testBase()
	var points []busnet.Config
	for _, n := range []int{4, 8, 12, 16} {
		cfg := base
		cfg.Processors = n
		points = append(points, cfg)
	}
	spec := Spec{Points: points, Replications: 2, Workers: 4}
	batch, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Points) != len(points) {
		t.Fatalf("batch returned %d points, want %d", len(batch.Points), len(points))
	}
	seen := make(map[int]int)
	err = RunStream(spec, func(d PointDelivery) {
		seen[d.Index]++
		want, err := json.Marshal(batch.Points[d.Index])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(d.Point)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("streamed point %d differs from batch reduction", d.Index)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range points {
		if seen[p] != 1 {
			t.Errorf("point %d delivered %d times, want exactly once", p, seen[p])
		}
	}
}

// Streaming is order-independent end to end: simulate out-of-order
// completion by single-threading the pool (workers=1 completes in grid
// order) vs. a wide pool, and check Run reassembles grid order either
// way. The golden tests pin the values; this pins the index mapping.
func TestRunCollectsStreamIntoGridOrder(t *testing.T) {
	spec := pipelineSpec(7)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 8, 12}
	for p, pr := range res.Points {
		if pr.Config.Processors != want[p] {
			t.Errorf("point %d has N=%d, want grid order %v", p, pr.Config.Processors, want)
		}
	}
}

func testTopology(t *testing.T, depth int) busnet.Topology {
	t.Helper()
	top, err := busnet.NewTopology().
		BufferedSourceNode("cpu", 4, 0.05, 1, busnet.Infinite, "mem").
		TransitNode("mem", 1).
		Bridge("cpu", "mem", depth).
		Seed(7).
		Horizon(2000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// Satellite fix: model backends drive Progress too — one job per point —
// where the pre-pipeline predictOnly never touched it.
func TestPredictBackendsReportProgress(t *testing.T) {
	for _, backend := range []busnet.Backend{busnet.BackendAnalytic, busnet.BackendFluid} {
		var p Progress
		spec := pipelineSpec(1)
		spec.Backend = backend
		spec.Progress = &p
		if _, err := Run(spec); err != nil {
			t.Fatal(err)
		}
		s := p.Snapshot()
		if s.TotalJobs != 3 || s.DoneJobs != 3 || s.TotalPoints != 3 || s.DonePoints != 3 {
			t.Errorf("%s backend snapshot = %+v, want 3/3 jobs and points", backend, s)
		}
		if !p.Done() {
			t.Errorf("%s backend: Done() false after sweep", backend)
		}
	}
	var p Progress
	tspec := TopologySpec{
		Points:   []busnet.Topology{testTopology(t, 1), testTopology(t, 4)},
		Backend:  busnet.BackendAnalytic,
		Progress: &p,
	}
	if _, err := RunTopology(tspec); err != nil {
		t.Fatal(err)
	}
	if s := p.Snapshot(); s.DoneJobs != 2 || s.DonePoints != 2 {
		t.Errorf("topology analytic snapshot = %+v, want 2/2", s)
	}
}

// Explicit Spec.Points are validated at plan time with the same error
// shape grid expansion uses.
func TestExplicitPointsValidated(t *testing.T) {
	bad := testBase()
	bad.Processors = 0
	_, err := Run(Spec{Points: []busnet.Config{testBase(), bad}, Replications: 1})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("sweep: point 1 invalid:")) {
		t.Fatalf("err = %v, want point-1 validation failure", err)
	}
}

// A point the simulator would refuse — above the station bound, or an
// invalid topology — is refused at plan time, before any job runs,
// rather than after every other point has been simulated.
func TestPlanRefusesPointsBeforeAnyJobRuns(t *testing.T) {
	big := testBase()
	big.Processors = busnet.MaxSimProcessors + 1
	refused := func(name string, err error, p *Progress) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "sweep: point 1 invalid:") {
			t.Errorf("%s: err = %v, want a plan-time point-1 refusal", name, err)
		}
		if done := p.Snapshot().DoneJobs; done != 0 {
			t.Errorf("%s: %d jobs ran before the refusal, want 0", name, done)
		}
	}
	var p Progress
	_, err := Run(Spec{Points: []busnet.Config{testBase(), big}, Replications: 3, Progress: &p})
	refused("explicit points", err, &p)
	grid := Grid{Base: testBase(), Processors: []int{4, big.Processors}}
	_, err = Run(Spec{Grid: grid, Replications: 3, Progress: &p})
	refused("grid", err, &p)
	// The bound is the simulator's: the fluid backend still takes the point.
	if _, err := Run(Spec{Grid: grid, Backend: busnet.BackendFluid}); err != nil {
		t.Errorf("fluid sweep refused a large-N point: %v", err)
	}

	bad := testTopology(t, 1)
	bad.Horizon = 0
	var tp Progress
	_, err = RunTopology(TopologySpec{Points: []busnet.Topology{testTopology(t, 1), bad}, Replications: 3, Progress: &tp})
	refused("topology", err, &tp)
	huge := testTopology(t, 1)
	huge.Nodes[0].Processors, huge.Nodes[0].ThinkRate = busnet.MaxSimProcessors+1, 1e-9
	_, err = RunTopology(TopologySpec{Points: []busnet.Topology{testTopology(t, 1), huge}, Replications: 3, Progress: &tp})
	refused("topology station bound", err, &tp)
	// Again the bound is the simulator's: the product-form overlay takes it.
	if _, err := RunTopology(TopologySpec{Points: []busnet.Topology{huge}, Backend: busnet.BackendAnalytic}); err != nil {
		t.Errorf("analytic topology sweep refused a large-N point: %v", err)
	}
}

// The executor's failure contract, white-box: a failing job stops
// nothing (every job still runs once), a point with a failed
// replication is never delivered, every other point is delivered
// exactly once with its own runs, and the error returned is the
// lowest-indexed failing job's — even when a later job fails first.
func TestPipelineFailureContract(t *testing.T) {
	const points, reps = 6, 3
	const slowFail, fastFail = 4, 13 // point 1 rep 1, point 4 rep 1
	for _, workers := range []int{1, 2, 5} {
		var ran [points * reps]atomic.Int32
		delivered := make(map[int]int)
		var p Progress
		fastFailed := make(chan struct{})
		pl := &pipeline[int, int]{
			points:   make([]int, points),
			reps:     reps,
			workers:  workers,
			progress: &p,
			run: func(_ int, pt, rep int) (int, error) {
				j := pt*reps + rep
				ran[j].Add(1)
				switch j {
				case slowFail:
					if workers > 1 {
						// Another worker reaches the later job meanwhile.
						<-fastFailed
					}
					return 0, fmt.Errorf("job %d failed", j)
				case fastFail:
					close(fastFailed)
					return 0, fmt.Errorf("job %d failed", j)
				}
				return j, nil
			},
			deliver: func(pt int, runs []int) {
				delivered[pt]++
				for rep, got := range runs {
					if want := pt*reps + rep; got != want {
						t.Errorf("workers=%d: point %d delivered run %d for replication %d", workers, pt, got, rep)
					}
				}
			},
			wrapErr: func(pt, rep int, err error) error {
				return fmt.Errorf("point %d replication %d: %w", pt, rep, err)
			},
		}
		err := pl.execute()
		if want := "point 1 replication 1: job 4 failed"; err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		for j := range ran {
			if n := ran[j].Load(); n != 1 {
				t.Errorf("workers=%d: job %d ran %d times, want 1", workers, j, n)
			}
		}
		for pt := 0; pt < points; pt++ {
			want := 1
			if pt == slowFail/reps || pt == fastFail/reps {
				want = 0
			}
			if delivered[pt] != want {
				t.Errorf("workers=%d: point %d delivered %d times, want %d", workers, pt, delivered[pt], want)
			}
		}
		if s := p.Snapshot(); s.DoneJobs != points*reps || s.Active != 0 {
			t.Errorf("workers=%d: progress = %+v, want every job counted done", workers, s)
		}
	}
}

// A warm cache hit costs a map read: each point's config is hashed once
// per sweep, so replications beyond the first add no allocations of
// their own (the point's buffers grow in size, not in number).
func TestWarmCachedReplicationsDoNotAllocate(t *testing.T) {
	cache := NewCache()
	spec := func(reps int) Spec {
		return Spec{
			Grid:         Grid{Base: testBase(), Processors: []int{4}},
			Replications: reps,
			Workers:      1,
			Cache:        cache,
		}
	}
	// Streams 0…39 cover every job of both measured sweeps.
	if _, err := Run(spec(40)); err != nil {
		t.Fatal(err)
	}
	allocs := func(reps int) float64 {
		s := spec(reps)
		return testing.AllocsPerRun(20, func() {
			if _, err := Run(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRep := (allocs(40) - allocs(10)) / 30
	if perRep >= 0.5 {
		t.Errorf("a warm cached replication allocates %.2f times, want < 0.5", perRep)
	}
	if cache.Misses() != 40 {
		t.Errorf("cache misses = %d, want 40 (the warm-up only)", cache.Misses())
	}
}

// skipUnderRace skips an allocation lock under the race detector, where
// sync.Pool drops a random share of Puts by design, so a warm worker's
// replication pool is not warm.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool discards pooled values at random under the race detector")
	}
}

// A cold replication through a cached sweep allocates little beyond
// what Evaluate returns: the job hands that Results to the run buffer
// and to the cache by pointer, so neither keeps a copy of its own.
func TestColdCachedReplicationBytes(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytesPerSweep := func(reps int) float64 {
		spec := Spec{
			Grid:         Grid{Base: testBase(), Processors: []int{4}},
			Replications: reps,
			Workers:      1,
		}
		run := func() {
			spec.Cache = NewCache()
			if _, err := Run(spec); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the replication pool
		const sweeps = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range sweeps {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / sweeps
	}
	perRep := (bytesPerSweep(40) - bytesPerSweep(10)) / 30
	if limit := 1024.0; perRep > limit {
		t.Errorf("a cold cached replication allocates %.0f B, limit %.0f B", perRep, limit)
	}
}

// Results that leave the sweep are the caller's own: editing any copied
// part of a kept run changes nothing a later warm sweep returns. Only
// the histograms stay shared, as read-only snapshots.
func TestResultsLeavingTheSweepAreCallersOwn(t *testing.T) {
	edits := []struct {
		part string
		edit func(*busnet.Results)
	}{
		{"grants", func(r *busnet.Results) { r.Grants[0] += 1000 }},
		{"bus_utilization", func(r *busnet.Results) { r.BusUtilization[0] += 1 }},
		{"diagnostics", func(r *busnet.Results) { r.Diagnostics.Stalls += 1000 }},
		{"wait_quantiles", func(r *busnet.Results) { r.WaitQuantiles.P99 += 1 }},
		{"response_quantiles", func(r *busnet.Results) { r.ResponseQuantiles.P50 += 1 }},
	}
	base := testBase()
	base.Quantiles = true
	spec := Spec{
		Grid:         Grid{Base: base, Processors: []int{4}},
		Replications: 2,
		Workers:      1,
		KeepRuns:     true,
	}
	for _, e := range edits {
		t.Run("keep_runs/"+e.part, func(t *testing.T) {
			s := spec
			s.Cache = NewCache()
			cold, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalIndent(t, cold)
			e.edit(&cold.Points[0].Runs[0])
			warm, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if s.Cache.Hits() == 0 {
				t.Fatal("warm sweep missed the cache")
			}
			if got := marshalIndent(t, warm); !bytes.Equal(got, want) {
				t.Errorf("editing %s of a kept run changed the warm sweep", e.part)
			}
		})
	}
}
