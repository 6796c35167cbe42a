package busnet_test

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// Every simulation runs on an engine, RNG and fabric recycled from
// earlier runs. These tests hold that a run's output depends on its own
// inputs only: not on which runs came before it on the same memory, nor
// on whether one of them was traced.

// recycleFlats is a mix of flat configs that leave their memory in
// different shapes: few and many stations, stalled interfaces, a second
// bus, histograms, shaped service and traffic, every arbiter. Each
// stateful traffic shape and the fixed-priority arbiter appear twice in
// a row, at different station counts, so that in every order one run
// reuses the sources and arbiter the run before it left.
func recycleFlats() []busnet.Config {
	base := busnet.DefaultConfig().AtHorizon(3000)
	base.Seed = 11
	with := func(edit func(*busnet.Config)) busnet.Config {
		c := base
		edit(&c)
		return c
	}
	mmpp2 := busnet.RareBurstMMPP2(0.08, 8, 50, 0.1)
	onoff := busnet.OnOffTraffic(0.5, 0.25, 100)
	return []busnet.Config{
		with(func(c *busnet.Config) { c.Processors = 2 }),
		with(func(c *busnet.Config) { c.Processors = 64 }),
		with(func(c *busnet.Config) {
			c.Processors, c.ThinkRate = 16, 0.09
			c.Mode, c.BufferCap = busnet.ModeBuffered, 1
		}),
		with(func(c *busnet.Config) { c.Processors, c.Buses = 32, 2 }),
		with(func(c *busnet.Config) {
			c.Processors, c.Quantiles = 16, true
			c.Mode, c.BufferCap = busnet.ModeBuffered, 4
		}),
		with(func(c *busnet.Config) { c.Service = busnet.HyperexpService(4) }),
		with(func(c *busnet.Config) {
			c.Mode, c.BufferCap = busnet.ModeBuffered, busnet.Infinite
			c.Traffic = mmpp2
		}),
		with(func(c *busnet.Config) {
			c.Processors = 12
			c.Mode, c.BufferCap = busnet.ModeBuffered, busnet.Infinite
			c.Traffic = mmpp2
		}),
		with(func(c *busnet.Config) {
			c.Processors = 6
			c.Mode, c.BufferCap = busnet.ModeBuffered, 2
			c.Traffic = onoff
		}),
		with(func(c *busnet.Config) { c.Processors, c.Traffic = 4, onoff }),
		with(func(c *busnet.Config) { c.Traffic = busnet.DeterministicTraffic() }),
		with(func(c *busnet.Config) {
			c.Processors = 6
			c.Mode, c.BufferCap = busnet.ModeBuffered, 1
			c.Traffic = busnet.DeterministicTraffic()
		}),
		with(func(c *busnet.Config) { c.Arbiter = busnet.FixedPriority.String() }),
		with(func(c *busnet.Config) {
			c.Processors, c.Buses = 12, 2
			c.Mode, c.BufferCap = busnet.ModeBuffered, 2
			c.Arbiter = busnet.FixedPriority.String()
		}),
		with(func(c *busnet.Config) {
			c.Processors = 4
			c.Arbiter, c.Weights = busnet.WeightedRoundRobin.String(), "4,2,1,1"
		}),
	}
}

// recycleTopologies adds fabrics whose shape changes from one to the
// next, 2 → 4 → 3 nodes, with different routes and bridge depths: a
// depth-1 tandem that blocks; the tree-merge fabric with two sources
// and fan-in blocking, histograms on; and two sources merging into a
// memory node over depth-2 bridges, arbitrated by explicit weights.
func recycleTopologies(t *testing.T) []busnet.Topology {
	t.Helper()
	tandem, err := busnet.NewTopology().
		BufferedSourceNode("cpu", 12, 0.08, 1, 2, "mem").
		TransitNode("mem", 0.9).
		Bridge("cpu", "mem", 1).
		Seed(11).
		Horizon(3000). // warmup rescales to 300
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := busnet.NewTopology().
		BufferedSourceNode("cpuA", 8, 0.04, 1, busnet.Infinite, "backbone", "mem").
		BufferedSourceNode("cpuB", 8, 0.04, 1, busnet.Infinite, "backbone", "mem").
		TransitNode("backbone", 1).
		TransitNode("mem", 1).
		Bridge("cpuA", "backbone", busnet.Infinite).
		Bridge("cpuB", "backbone", busnet.Infinite).
		Bridge("backbone", "mem", 1).
		Seed(11).
		Horizon(3000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	tree.Quantiles = true
	merge, err := busnet.NewTopology().
		BufferedSourceNode("cpuA", 6, 0.06, 1.5, 2, "mem").
		BufferedSourceNode("cpuB", 10, 0.05, 1.5, 1, "mem").
		TransitNode("mem", 1).
		Bridge("cpuA", "mem", 2).
		Bridge("cpuB", "mem", 2).
		Seed(11).
		Horizon(3000).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	merge.Nodes[2].Arbiter, merge.Nodes[2].Weights = busnet.WeightedRoundRobin.String(), "3,1"
	return []busnet.Topology{tandem, tree, merge}
}

// recycleJob is one entry of the mixed list: a flat config or a
// topology.
type recycleJob struct {
	flat *busnet.Config
	topo *busnet.Topology
}

// run evaluates the job on the simulator, traced when rec is non-nil.
func (j recycleJob) run(t *testing.T, rec *busnet.FlightRecorder) any {
	t.Helper()
	var (
		out any
		err error
	)
	switch {
	case j.flat != nil && rec != nil:
		out, err = busnet.EvaluateTraced(*j.flat, busnet.BackendSim, rec)
	case j.flat != nil:
		out, err = busnet.Evaluate(*j.flat, busnet.BackendSim)
	case rec != nil:
		out, err = busnet.EvaluateTopologyTraced(*j.topo, busnet.BackendSim, rec)
	default:
		out, err = busnet.EvaluateTopology(*j.topo, busnet.BackendSim)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recorderState is what a flight recorder has captured so far.
func recorderState(rec *busnet.FlightRecorder) []any {
	return []any{rec.Len(), rec.Overwritten(), rec.Records()}
}

// TestRecycledRunsIgnoreHistory runs the mixed list forwards, reversed,
// and with a traced run of the next entry before every entry. Every
// evaluation, Results and Diagnostics and histograms included, must be
// identical in all three orders, and a recorder must capture nothing
// once its traced run has returned. It runs on one P, so that every
// run takes the replication the run before it released: its lowered
// topology, sources, service distribution and arbiters.
func TestRecycledRunsIgnoreHistory(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var jobs []recycleJob
	for _, c := range recycleFlats() {
		jobs = append(jobs, recycleJob{flat: &c})
	}
	for _, top := range recycleTopologies(t) {
		jobs = append(jobs, recycleJob{topo: &top})
	}
	n := len(jobs)

	forwards := make([]any, n)
	for i, j := range jobs {
		forwards[i] = j.run(t, nil)
	}
	// The list must exercise the paths it names: stalls at a full
	// interface, and buses blocked after service by full bridges.
	if d := forwards[2].(busnet.Evaluation).Diagnostics; d.Stalls == 0 {
		t.Fatal("the depth-1 buffered config never stalled")
	}
	for i, out := range forwards {
		if ev, ok := out.(busnet.TopologyEvaluation); ok && ev.Diagnostics.BridgeBlocks == 0 {
			t.Fatalf("fabric %d never blocked a bus after service", i)
		}
	}
	reversed := make([]any, n)
	for i := n - 1; i >= 0; i-- {
		reversed[i] = jobs[i].run(t, nil)
	}
	interleaved := make([]any, n)
	recs := make([]*busnet.FlightRecorder, n)
	captured := make([][]any, n)
	for i, j := range jobs {
		next := (i + 1) % n
		recs[next] = busnet.NewFlightRecorder(1 << 12)
		traced := jobs[next].run(t, recs[next])
		if !reflect.DeepEqual(traced, forwards[next]) {
			t.Errorf("job %d: traced evaluation differs from the untraced one", next)
		}
		captured[next] = recorderState(recs[next])
		if recs[next].Len() == 0 {
			t.Fatalf("job %d: the traced run captured nothing", next)
		}
		interleaved[i] = j.run(t, nil)
	}
	for i := range jobs {
		if !reflect.DeepEqual(reversed[i], forwards[i]) {
			t.Errorf("job %d: the reversed order changed its evaluation", i)
		}
		if !reflect.DeepEqual(interleaved[i], forwards[i]) {
			t.Errorf("job %d: interleaving traced runs changed its evaluation", i)
		}
		if !reflect.DeepEqual(recorderState(recs[i]), captured[i]) {
			t.Errorf("job %d: its recorder captured more after its traced run returned", i)
		}
	}
}

// TestRecycledSweepWorkerInvariance sweeps the flat list with four
// workers and with one: each worker recycles its own memory, so how
// jobs fall onto workers must not show in the result. Run it with
// -race to check that no pooled memory is shared between workers.
func TestRecycledSweepWorkerInvariance(t *testing.T) {
	spec := sweep.Spec{Points: recycleFlats(), Replications: 3}
	if testing.Short() {
		spec.Replications = 2
	}
	var results []sweep.Result
	for _, w := range []int{1, 4} {
		s := spec
		s.Workers = w
		r, err := sweep.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("the sweep differs between 1 and 4 workers")
	}
}
