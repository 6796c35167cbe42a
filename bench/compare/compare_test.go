package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/busnet/busnet/bench/internal/record"
)

// around returns n samples spread evenly over center·(1 ± spread/2).
func around(center, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = center * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ps, cs []float64
		lower  bool
		want   verdict
	}{
		{"clear win", around(100, 0.02, 10), around(80, 0.02, 10), true, gain},
		{"clear win, higher is better", around(80, 0.02, 10), around(100, 0.02, 10), false, gain},
		{"tie", around(100, 0.02, 10), around(100, 0.02, 10), true, unchanged},
		{"small drift within the bound", around(100, 0.02, 10), around(103, 0.02, 10), true, unchanged},
		{"regression", around(100, 0.02, 10), around(120, 0.02, 10), true, regression},
		{"spread wider than the bound", around(100, 0.5, 10), around(100, 0.5, 10), true, unresolved},
		{"spread wider than the bound, every run better", around(100, 0.3, 10), around(60, 0.3, 10), true, gain},
		{"spread wider than the bound, every run worse", around(100, 0.3, 10), around(150, 0.3, 10), true, regression},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := judge(tc.ps, tc.cs, 0.1, tc.lower)
			if c.verdict != tc.want {
				t.Errorf("verdict %s (won %d, lost %d, delta %+.3f), want %s", c.verdict, c.wins, c.losses, c.delta, tc.want)
			}
		})
	}
}

// TestGainNeedsNineTenths: a change faster in only 8 of 10 pairs is no
// gain, however large the median difference.
func TestGainNeedsNineTenths(t *testing.T) {
	ps := around(100, 0.02, 10)
	cs := around(80, 0.02, 10)
	cs[0], cs[1] = 200, 200
	if c := judge(ps, cs, 0.1, true); c.verdict == gain {
		t.Fatalf("gain with %d of %d pairs won", c.wins, c.pairs)
	}
}

func rec(failed int, samples []float64, digest string) *record.Record {
	w := record.Workload{Name: "paper-long", Attempted: 270, Failed: failed,
		Runs: []record.Run{{Seed: 42, Digest: digest}}}
	w.Metrics = []record.Metric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1,
		Samples: samples, Summary: record.Summarize(samples)}}
	return &record.Record{Schema: record.Schema, Workloads: []record.Workload{w}}
}

func TestFailureRiseAndOutputs(t *testing.T) {
	xs := around(1, 0.02, 10)
	rows, err := compare(rec(0, xs, "a"), rec(1, xs, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].failRose {
		t.Error("a rise from 0 to 1 failed operation is not flagged")
	}
	if rows[0].outputs != "DIFFER" {
		t.Errorf("outputs %q for different digests on one seed", rows[0].outputs)
	}
	rows, _ = compare(rec(1, xs, "a"), rec(1, xs, "a"))
	if rows[0].failRose || rows[0].outputs != "identical" {
		t.Errorf("equal records: failRose %v, outputs %q", rows[0].failRose, rows[0].outputs)
	}
}

func TestTooFewPairs(t *testing.T) {
	xs := around(1, 0.02, 9)
	if _, err := compare(rec(0, xs, "a"), rec(0, xs, "a")); err == nil {
		t.Fatal("9 pairs accepted")
	}
}

func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "p.json"), filepath.Join(dir, "c.json")
	if err := record.Save(parent, rec(0, around(1, 0.02, 10), "a")); err != nil {
		t.Fatal(err)
	}
	if err := record.Save(change, rec(0, around(1.3, 0.02, 10), "a")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{parent, change}, &out, &out); code != 1 {
		t.Fatalf("exit %d for a 30%% regression, want 1:\n%s", code, out.String())
	}
	if lines := strings.Count(out.String(), "\n"); lines != 1 {
		t.Errorf("%d lines, want one row per workload:\n%s", lines, out.String())
	}
	if code := run([]string{parent, parent}, &out, &out); code != 0 {
		t.Fatalf("exit %d comparing a record with itself", code)
	}
}
