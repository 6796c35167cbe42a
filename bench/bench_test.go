package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/busnet/busnet/bench/internal/record"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// testShrink divides every horizon and the solve count so a pass of any
// workload takes milliseconds.
const testShrink = 100

func TestWorkloadsDeclareOps(t *testing.T) {
	want := map[string]int{"paper-long": 27, "fabric": 11, "shapes-tails": 35, "optimize-short": optSolves / testShrink}
	for _, w := range workloads {
		in, err := w.setup(42, testShrink)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if in.ops() != want[w.name] {
			t.Errorf("%s declares %d operations, want %d", w.name, in.ops(), want[w.name])
		}
		if len(in.units) == 0 {
			t.Errorf("%s gives the ladder no units to probe", w.name)
		}
	}
}

// TestDigestsStable: a pass's output digest is the same on a second
// pass, with tracing on, and at two workers — and no operation fails.
func TestDigestsStable(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.setup(7, testShrink)
			if err != nil {
				t.Fatal(err)
			}
			a := in.run(nil, nil)
			if a.ops != in.ops() || a.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", a.failed, a.ops, a.failures)
			}
			b := in.run(newTracer(), nil)
			in.workers = 2
			c := in.run(nil, nil)
			if a.digest != b.digest || a.digest != c.digest {
				t.Errorf("digests differ: first %s, traced %s, two workers %s", a.digest, b.digest, c.digest)
			}
		})
	}
}

// TestExactChecks runs the closed-form checks, which setup turns off at
// shrunk horizons, at a tenth of the real horizons: the exact points of
// the flat and fabric curves pass, and a far-off mean fails.
func TestExactChecks(t *testing.T) {
	for _, setup := range []func(int64, int) (*instance, error){setupPaperLong, setupFabric} {
		in, err := setup(42, 10)
		if err != nil {
			t.Fatal(err)
		}
		in.exact = true
		if p := in.run(nil, nil); p.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", in.name, p.failed, p.ops, p.failures)
		}
	}
	if err := within("mean wait", sweep.Stat{Mean: 1.1, CI95: 0.01}, 1); err == nil {
		t.Error("a mean 10% off its closed form with a 1% CI passed")
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkJSON
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command emits %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, command %+v", i, s, m)
		}
	}
	for i, m := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, command %+v", i, s, m)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, name)
		}
	}
}

// TestCommandEmitsEveryMetric runs the command path in both modes and
// checks the result line: every declared metric of the mode, under
// workload/name, no failed operation. The traced mode runs the two
// workloads whose ladders cover both engines, flat (optimize-short's
// candidates) and fabric; the per-layer names are the same on every
// workload. A second untraced invocation appends to the same record.
func TestCommandEmitsEveryMetric(t *testing.T) {
	out := filepath.Join(t.TempDir(), "record.json")
	traced := []workload{workloads[1], workloads[3]}
	for _, tc := range []struct {
		trace bool
		ws    []workload
		specs []metric
	}{{false, workloads, endToEnd}, {true, traced, perLayer}, {false, workloads, endToEnd}} {
		var stdout bytes.Buffer
		o := options{workloads: tc.ws, seed: 42, seconds: 0.01, trace: tc.trace, runs: 1, shrink: testShrink}
		if !tc.trace {
			o.out = out
		}
		if err := execute(o, &stdout, io.Discard); err != nil {
			t.Fatalf("trace %v: %v", tc.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %v: last line %q: %v", tc.trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %v: correct %v, %d of %d failed", tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(tc.ws)*len(tc.specs) {
			t.Errorf("trace %v: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.ws)*len(tc.specs))
		}
		for _, w := range tc.ws {
			for _, m := range tc.specs {
				got, ok := res.Metrics[w.name+"/"+m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("trace %v: %s/%s missing or unit %q", tc.trace, w.name, m.name, got.Unit)
				}
			}
		}
	}
	rec, err := record.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Find("fabric").Find("wall_s").Summary.N; n != 2 {
		t.Errorf("two invocations appended %d runs, want 2", n)
	}
}

func TestNoiseGate(t *testing.T) {
	rec := &record.Record{Workloads: []record.Workload{{Metrics: []record.Metric{
		{Name: "wall_s", Bound: 0.1, Summary: record.Summarize([]float64{1, 1.01, 0.99})},
		{Name: "sim.sched.ns_per_event", Summary: record.Summarize([]float64{1, 2, 3})},
	}}}}
	if noisy(rec) {
		t.Error("CV 1% against bound 10% flagged noisy; per-layer metrics have no bound")
	}
	rec.Workloads[0].Metrics[0].Summary = record.Summarize([]float64{1, 1.2, 0.8})
	if !noisy(rec) {
		t.Error("CV 20% against bound 10% not flagged noisy")
	}
}
