package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
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

// Replicate hands over every (point, replication) exactly once, each
// the very run Run keeps for it, at any worker count; a spec whose
// points start at stream base + from runs replications from … of the
// base spec, which is how the optimizer's race asks only for new
// streams. Progress counts the jobs Replicate ran, and a model backend,
// which runs no replications, is refused.
func TestReplicateHandsOverEveryReplication(t *testing.T) {
	const reps, from = 6, 2
	base := testBase()
	base.Quantiles = true
	var points []busnet.Config
	for _, n := range []int{4, 8, 12} {
		cfg := base
		cfg.Processors = n
		points = append(points, cfg)
	}
	kept, err := Run(Spec{Points: points, Replications: reps, Workers: 1, KeepRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	later := make([]busnet.Config, len(points))
	for i, cfg := range points {
		cfg.Stream += from
		later[i] = cfg
	}
	for _, workers := range []int{1, 4} {
		var p Progress
		seen := make(map[[2]int]int)
		err := Replicate(Spec{Points: later, Replications: reps - from, Workers: workers, Progress: &p},
			func(pt, rep int, r *busnet.Results) {
				seen[[2]int{pt, rep}]++
				if !reflect.DeepEqual(*r, kept.Points[pt].Runs[from+rep]) {
					t.Errorf("workers=%d: point %d replication %d is not Run's replication %d", workers, pt, rep, from+rep)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(points) * (reps - from); len(seen) != want {
			t.Errorf("workers=%d: %d replications handed over, want %d", workers, len(seen), want)
		}
		for k, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: point %d replication %d handed over %d times", workers, k[0], k[1], n)
			}
		}
		if s := p.Snapshot(); s.TotalJobs != int64(len(seen)) || !p.Done() {
			t.Errorf("workers=%d: progress = %+v, want %d jobs done", workers, s, len(seen))
		}
	}
	err = Replicate(Spec{Points: points, Backend: busnet.BackendAnalytic}, func(int, int, *busnet.Results) {
		t.Error("a model backend handed over a replication")
	})
	if want := "sweep: the analytic backend runs no replications"; err == nil || err.Error() != want {
		t.Errorf("analytic Replicate: err = %v, want %q", err, want)
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

// Model-backend sweeps run on the worker pool like simulated ones: Run
// and RunTopology marshal to the same bytes at any worker count, and the
// stream forms deliver every point exactly once.
func TestModelSweepsIdenticalAcrossWorkers(t *testing.T) {
	check := func(name string, n int, run func(workers int) (any, error), stream func(workers int, deliver func(int)) error) {
		t.Helper()
		var want []byte
		for _, workers := range []int{1, 4} {
			res, err := run(workers)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", name, workers, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: output at %d workers differs from 1 worker", name, workers)
			}
			seen := make(map[int]int)
			if err := stream(workers, func(i int) { seen[i]++ }); err != nil {
				t.Fatalf("%s stream at %d workers: %v", name, workers, err)
			}
			for i := 0; i < n; i++ {
				if seen[i] != 1 {
					t.Errorf("%s at %d workers: point %d delivered %d times, want once", name, workers, i, seen[i])
				}
			}
			if len(seen) != n {
				t.Errorf("%s at %d workers: %d indices delivered, want %d", name, workers, len(seen), n)
			}
		}
	}
	grid := Grid{Base: testBase(), Processors: []int{4, 8, 16, 64, 256}, ThinkRates: []float64{0.05, 0.1}}
	for _, backend := range []busnet.Backend{busnet.BackendAnalytic, busnet.BackendFluid} {
		spec := func(workers int) Spec { return Spec{Grid: grid, Backend: backend, Workers: workers} }
		check(string(backend), 10,
			func(workers int) (any, error) { return Run(spec(workers)) },
			func(workers int, deliver func(int)) error {
				return RunStream(spec(workers), func(d PointDelivery) { deliver(d.Index) })
			})
	}
	points := []busnet.Topology{testTopology(t, 1), testTopology(t, 2), testTopology(t, 4), testTopology(t, 8), testTopology(t, 16)}
	tspec := func(workers int) TopologySpec {
		return TopologySpec{Points: points, Backend: busnet.BackendAnalytic, Workers: workers}
	}
	check("topology analytic", len(points),
		func(workers int) (any, error) { return RunTopology(tspec(workers)) },
		func(workers int, deliver func(int)) error {
			return RunTopologyStream(tspec(workers), func(d TopologyPointDelivery) { deliver(d.Index) })
		})
}

// A model backend refusing a point fails the sweep with the lowest
// refused point's error, but stops nothing: every other point is still
// evaluated and delivered once, and Progress ends fully counted.
func TestModelSweepRefusalDeliversTheRest(t *testing.T) {
	points := make([]busnet.Config, 5)
	for i := range points {
		points[i] = testBase()
		points[i].Processors = 4 * (i + 1)
		if i == 1 || i == 3 {
			points[i].Traffic = busnet.MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
		}
	}
	for _, workers := range []int{1, 4} {
		var p Progress
		delivered := make(map[int]int)
		spec := Spec{Points: points, Backend: busnet.BackendFluid, Workers: workers, Progress: &p}
		err := RunStream(spec, func(d PointDelivery) { delivered[d.Index]++ })
		want := "sweep: fluid backend, point 1: busnet: no fluid model for mmpp2 traffic — the mean-field balance assumes Poisson arrivals"
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", workers, err, want)
		}
		for i := range points {
			want := 1
			if i == 1 || i == 3 {
				want = 0
			}
			if delivered[i] != want {
				t.Errorf("workers=%d: point %d delivered %d times, want %d", workers, i, delivered[i], want)
			}
		}
		if s := p.Snapshot(); s.TotalJobs != 5 || s.DoneJobs != 5 || s.Active != 0 || !p.Done() {
			t.Errorf("workers=%d: progress = %+v, want 5 of 5 jobs done and none active", workers, s)
		}
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

// skipUnderRace skips an allocation lock under the race detector, where
// sync.Pool drops a random share of Puts by design, so a warm worker's
// replication pool is not warm.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool discards pooled values at random under the race detector")
	}
}

// A replication through a sweep allocates little beyond what Evaluate
// returns: the job hands that Results to the run buffer by pointer, so
// the sweep keeps no copy of its own. It allocates 360 B; through a
// result cache it allocated 707 B while every Results echoed its
// Config, and 499 B without the echo.
func TestSweepReplicationBytes(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytesPerSweep := func(reps int) float64 {
		spec := Spec{
			Grid:         Grid{Base: testBase(), Processors: []int{4}},
			Replications: reps,
			Workers:      1,
		}
		run := func() {
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
	if limit := 448.0; perRep > limit {
		t.Errorf("a sweep replication allocates %.0f B, limit %.0f B", perRep, limit)
	}
}

// Results that leave the sweep are the caller's own: editing any part
// of a kept run changes nothing a later sweep returns, so no part of it
// is shared with the replication's pooled run state.
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
			first, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalIndent(t, first)
			e.edit(&first.Points[0].Runs[0])
			again, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := marshalIndent(t, again); !bytes.Equal(got, want) {
				t.Errorf("editing %s of a kept run changed a later sweep", e.part)
			}
		})
	}
}
