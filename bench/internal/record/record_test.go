package record

import (
	"path/filepath"
	"testing"
)

// TestQuartilesMatchPython pins the exclusive method of Python's
// statistics.quantiles(xs, n=4), which the benchmark's spreads are
// judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{3}, 3, 3, 3},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if r, err := Load(path); r != nil || err != nil {
		t.Fatalf("missing record: %v, %v; want nil, nil", r, err)
	}
	in := &Record{Schema: Schema, Workloads: []Workload{{Name: "w", Metrics: []Metric{{Name: "m", Samples: []float64{1, 2}}}}}}
	if err := Save(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Find("w").Find("m").Samples; len(got) != 2 || got[1] != 2 {
		t.Errorf("round trip lost samples: %v", got)
	}
	if err := Save(path, &Record{Schema: "other"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("a record of another schema loaded")
	}
}
