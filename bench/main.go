// Command bench is the busnet benchmark. It times four workloads end to
// end through the public pkg/busnet, sweep and opt APIs at one worker,
// checks every output, and, in a separate traced run, measures each
// layer below from outside in ns per fired event. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh --workload paper-long --seed 42 --seconds 25 --trace 0
//	bash bench/run.sh --runs 5 --seconds 6 --out parent.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics by name with their units.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"github.com/busnet/busnet/bench/internal/record"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings; shrink is for tests only.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	trace     bool
	runs      int
	out       string
	traceOut  string
	shrink    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 42, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 25, "seconds one run measures for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run with per-layer metrics")
	runs := fs.Int("runs", 1, "runs per workload, interleaved round-robin across workloads")
	out := fs.String("out", "", "append the runs to this JSON record and fail if it is too noisy to gate on")
	traceOut := fs.String("trace-out", "", "with --trace 1, write the spans as Chrome trace JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, runs: *runs, out: *out, traceOut: *traceOut, shrink: 1}
	switch {
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "bench: --trace %d, want 0 or 1\n", *trace)
		return 2
	case !(o.seconds > 0):
		fmt.Fprintf(stderr, "bench: --seconds %v, want > 0\n", o.seconds)
		return 2
	case o.runs < 1:
		fmt.Fprintf(stderr, "bench: --runs %d, want ≥ 1\n", o.runs)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *name == "all" {
		o.workloads = workloads
	} else if w, ok := findWorkload(*name); ok {
		o.workloads = []workload{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown --workload %q; want %s, or all\n", *name, strings.Join(names, ", "))
		return 2
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs every selected workload o.runs times, round-robin so
// host drift hits all of them alike, prints one line per (workload,
// metric), appends to the record when asked, and ends with the JSON
// result line.
func execute(o options, stdout, stderr io.Writer) error {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	samples := make([][]sample, len(o.workloads))
	for r := 0; r < o.runs; r++ {
		for i, w := range o.workloads {
			s, err := measure(w, o, tr)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			for _, f := range s.failures {
				fmt.Fprintf(stderr, "bench: %s: FAILED %s\n", w.name, f)
			}
			samples[i] = append(samples[i], s)
		}
	}
	if o.traceOut != "" && tr != nil {
		if err := writeTrace(o.traceOut, tr); err != nil {
			return err
		}
	}

	rec := &record.Record{Schema: record.Schema, Seconds: o.seconds, Trace: o.trace}
	if o.out != "" {
		rec.Host = host()
		old, err := record.Load(o.out)
		if err != nil {
			return err
		}
		if old != nil {
			if old.Host != rec.Host || old.Trace != rec.Trace || old.Seconds != rec.Seconds {
				return fmt.Errorf("%s holds runs of another host or setting; start a new record", o.out)
			}
			rec = old
		}
	}
	for i, w := range o.workloads {
		appendRuns(rec, w.name, samples[i], specs, o.seed)
	}
	rec.Noisy = noisy(rec)

	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Metrics: map[string]map[string]any{}}
	for i, w := range o.workloads {
		rw := rec.Find(w.name)
		for _, m := range rw.Metrics {
			fmt.Fprintf(stdout, "%-15s %-36s %-6s median=%-12.6g iqr=%-10.3g cv=%5.2f%% n=%d\n",
				w.name, m.Name, m.Unit, m.Summary.Median, m.Summary.IQR, 100*m.Summary.CV, m.Summary.N)
			// The result line covers this invocation's runs only.
			xs := m.Samples[len(m.Samples)-len(samples[i]):]
			key := m.Name
			if len(o.workloads) > 1 {
				key = w.name + "/" + m.Name
			}
			result.Metrics[key] = map[string]any{"value": record.Median(xs), "unit": m.Unit}
		}
		for _, s := range samples[i] {
			result.Attempted += s.attempted
			result.Failed += s.failed
		}
	}
	result.Correct = result.Failed == 0
	if o.out != "" {
		if err := record.Save(o.out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if o.out != "" && rec.Noisy {
		return fmt.Errorf("record %s is noisy: an end-to-end metric's CV exceeds half its bound", o.out)
	}
	return nil
}

// appendRuns adds one workload's runs to the record.
func appendRuns(rec *record.Record, name string, ss []sample, specs []metric, seed int64) {
	w := rec.Find(name)
	if w == nil {
		rec.Workloads = append(rec.Workloads, record.Workload{Name: name})
		w = &rec.Workloads[len(rec.Workloads)-1]
	}
	for _, s := range ss {
		w.Attempted += s.attempted
		w.Failed += s.failed
		w.Runs = append(w.Runs, record.Run{Seed: seed, Digest: s.digest, RefNS: s.refNS})
	}
	for _, spec := range specs {
		m := w.Find(spec.name)
		if m == nil {
			w.Metrics = append(w.Metrics, record.Metric{Name: spec.name, Unit: spec.unit, Better: spec.better, Bound: spec.bound, Doc: spec.doc})
			m = &w.Metrics[len(w.Metrics)-1]
		}
		for _, s := range ss {
			m.Samples = append(m.Samples, s.values[spec.name])
		}
		m.Summary = record.Summarize(m.Samples)
	}
}

// noisy is the noise gate: a record is too noisy to gate a change on
// when, with at least three runs, any end-to-end metric's coefficient of
// variation exceeds half its bound.
func noisy(rec *record.Record) bool {
	for _, w := range rec.Workloads {
		for _, m := range w.Metrics {
			if m.Bound > 0 && m.Summary.N >= 3 && m.Summary.CV > m.Bound/2 {
				return true
			}
		}
	}
	return false
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// host describes the machine the runs were taken on.
func host() record.Host {
	h := record.Host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// sample is one run of one workload: its metric values and the
// operations its passes attempted and failed.
type sample struct {
	values    map[string]float64
	attempted int
	failed    int
	failures  []string
	digest    string
	refNS     float64 // the reference kernel's median ns per step during the run
}

// book adds a pass's operations. A pass whose digest differs from ref —
// the run's first pass — fails every operation it attempted.
func (s *sample) book(p pass, ref string) {
	s.attempted += p.ops
	s.failed += p.failed
	s.failures = append(s.failures, p.failures...)
	if p.digest != ref {
		s.failed += p.ops - p.failed
		s.failures = append(s.failures, "result digest differs from the run's first pass")
	}
}

func measure(w workload, o options, tr *tracer) (sample, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	var s sample
	var err error
	if o.trace {
		s, err = tracedRun(w, o.seed, budget, o.shrink, tr)
	} else {
		s, err = endToEndRun(w, o.seed, budget, o.shrink)
	}
	if err != nil {
		return s, err
	}
	for k, v := range s.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return s, fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return s, nil
}

// endToEndRun sets the workload up and runs one warm-up pass, which
// fixes the reference digest and lets the heap and caches reach their
// working size; then, until the budget is spent and at least three
// times, it times a block of set-ups and a pass. Times are scaled to the
// reference host speed by a speedometer (speed.go); values are medians
// over every timed set-up and pass.
func endToEndRun(w workload, seed int64, budget time.Duration, shrink int) (sample, error) {
	start := time.Now()
	in, err := w.setup(seed, shrink)
	if err != nil {
		return sample{}, fmt.Errorf("setup: %w", err)
	}
	warm := in.run(nil, nil)
	s := sample{values: map[string]float64{}, digest: warm.digest}
	s.book(warm, warm.digest)

	var setups, walls, allocs, refs []float64
	for len(walls) < 3 || time.Since(start) < budget {
		// Set-ups are timed in a block before every pass, so their median
		// spans the whole run; the collection first leaves no cycle from
		// the previous pass running into them.
		runtime.GC()
		sp := newSpeedometer()
		var block []float64
		for len(block) < 5 || sp.raw+time.Since(sp.start) < budget/1000 {
			t := time.Now()
			if _, err := w.setup(seed, shrink); err != nil {
				return sample{}, fmt.Errorf("setup: %w", err)
			}
			block = append(block, time.Since(t).Seconds())
			sp.tick()
		}
		sp.read()
		for _, x := range block {
			setups = append(setups, x*float64(sp.scaled)/float64(sp.raw))
		}

		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = newSpeedometer()
		p := in.run(nil, sp.tick)
		sp.read()
		runtime.ReadMemStats(&m1)
		walls = append(walls, sp.scaled.Seconds())
		refs = append(refs, sp.reads...)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		s.book(p, warm.digest)
	}
	fired := warm.fired
	if len(warm.solves) > 0 {
		rc := recount(warm.solves, in.workers, nil)
		s.book(rc, rc.digest)
		fired = rc.fired
	}
	if fired == 0 {
		return s, fmt.Errorf("no events fired")
	}
	s.refNS = record.Median(refs)
	s.values["setup_s"] = record.Median(setups)
	s.values["wall_s"] = record.Median(walls)
	s.values["ns_per_event"] = record.Median(walls) * 1e9 / float64(fired)
	s.values["alloc_mb"] = record.Median(allocs)
	return s, nil
}

// tracedRun alternates untraced and traced passes for half the budget,
// recounts the optimizer's jobs traced, runs the ladder probes, and
// derives the per-layer metrics.
func tracedRun(w workload, seed int64, budget time.Duration, shrink int, tr *tracer) (sample, error) {
	start := time.Now()
	in, err := w.setup(seed, shrink)
	if err != nil {
		return sample{}, fmt.Errorf("setup: %w", err)
	}
	warm := in.run(nil, nil)
	s := sample{values: map[string]float64{}, digest: warm.digest}
	s.book(warm, warm.digest)
	var traced []pass
	var tWall, uWall []float64
	var gc, cpu float64
	var refs []float64
	for len(traced) == 0 || time.Since(start) < budget/2 {
		refs = append(refs, refNS())
		g0, c0 := cpuSeconds()
		t := time.Now()
		p := in.run(nil, nil)
		uWall = append(uWall, time.Since(t).Seconds())
		g1, c1 := cpuSeconds()
		gc, cpu = gc+g1-g0, cpu+c1-c0
		s.book(p, warm.digest)

		runtime.GC()
		t = time.Now()
		p = in.run(tr, nil)
		tWall = append(tWall, time.Since(t).Seconds())
		s.book(p, warm.digest)
		traced = append(traced, p)
	}

	// Points and engine counters come from the sweeps the workload ran;
	// the optimizer's sweeps run inside opt.Solve, so its recount stands
	// in for them.
	var points []cost
	for _, p := range traced {
		points = append(points, p.points...)
	}
	fired, diag := warm.fired, warm.diag
	if len(warm.solves) > 0 {
		rc := recount(warm.solves, in.workers, tr)
		s.book(rc, rc.digest)
		fired, diag, points = rc.fired, rc.diag, rc.points
	}
	if fired == 0 {
		return s, fmt.Errorf("no events fired")
	}

	l, err := runLadder(in, seed)
	if err != nil {
		return s, err
	}
	s.attempted += l.ops
	s.failed += len(l.failures)
	s.failures = append(s.failures, l.failures...)
	v := s.values
	for k, x := range l.v {
		v[k] = x
	}

	v["sim.engine.pool_hit_ratio"] = float64(diag.Engine.PoolHits) / float64(diag.Engine.Scheduled)
	v["sim.wheel.overflow_per_event"] = float64(diag.Engine.WheelOverflow) / float64(diag.Engine.Fired)
	v["sim.wheel.rebases_per_mevent"] = 1e6 * float64(diag.Engine.WheelRebases) / float64(diag.Engine.Fired)

	var span, pf, jobs float64
	for _, c := range points {
		span += float64(c.span)
		pf += float64(c.fired)
		jobs += float64(c.jobs)
	}
	v["sweep.point.ns_per_event"] = span / pf
	v["sweep.point.overhead_ns_per_event"] = span/pf - l.own - l.setupNS*jobs/pf

	var callSpan, callJobs, calls float64
	var encode, residual []float64
	for i, p := range traced {
		var ps float64
		for _, c := range p.calls {
			ps += float64(c.span)
			callJobs += float64(c.jobs)
		}
		callSpan += ps
		calls += float64(len(p.calls))
		encode = append(encode, p.encode.Seconds()*1e3)
		residual = append(residual, (tWall[i]*1e9-ps)/float64(fired))
	}
	callFired := float64(fired) * float64(len(traced))
	v["call.span_ms"] = callSpan / calls / 1e6
	v["call.des_jobs"] = callJobs / calls
	v["call.overhead_frac"] = 1 - (callJobs*l.setupNS+callFired*l.own)/callSpan
	v["scenario.encode_ms"] = record.Median(encode)
	v["scenario.residual_ns_per_event"] = record.Median(residual)

	var hits, misses float64
	for _, sv := range warm.solves {
		hits += float64(sv.cacheHits)
		misses += float64(sv.desJobs)
	}
	v["sweep.cache.hit_ratio"] = 0
	if hits+misses > 0 {
		v["sweep.cache.hit_ratio"] = hits / (hits + misses)
	}
	v["runtime.gc_cpu_frac"] = gc / cpu
	v["trace.overhead_frac"] = record.Median(tWall)/record.Median(uWall) - 1
	s.refNS = record.Median(refs)
	v["host.ref_ns_per_step"] = s.refNS
	return s, nil
}

// cpuSeconds returns the process's GC CPU time and its total used CPU
// time (user plus GC), after a collection that brings the runtime's
// CPU accounting up to date.
func cpuSeconds() (gc, used float64) {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(ms)
	gc = ms[0].Value.Float64()
	return gc, gc + ms[1].Value.Float64()
}
