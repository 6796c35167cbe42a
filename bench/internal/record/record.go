// Package record is the benchmark's on-disk format: one JSON file per
// side of a comparison, holding every run's raw value of every metric
// so that the compare tool can pair runs, together with the host the
// runs were taken on. The benchmark appends to a record run by run, and
// the compare tool reads two of them.
package record

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"slices"
)

// Schema names the format version; Load refuses any other.
const Schema = "busnet-bench/1"

// Record is every run of one benchmark configuration on one host.
type Record struct {
	Schema string `json:"schema"`
	Host   Host   `json:"host"`
	// Seconds is how long each run measured; Trace marks a record of
	// traced runs, whose metrics are the per-layer ones.
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	// Noisy is set when an end-to-end metric's coefficient of variation
	// across runs exceeds half its regression bound: such a record is too
	// noisy to gate a change on.
	Noisy     bool       `json:"noisy"`
	Workloads []Workload `json:"workloads"`
}

// Host records where the runs were taken.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// Workload is one workload's runs: operation counts summed over runs,
// each run's seed and output digest, and one Metric per reported
// quantity.
type Workload struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Runs      []Run    `json:"runs"`
	Metrics   []Metric `json:"metrics"`
}

// Run identifies one run's inputs and outputs: the seed they were
// generated from and the sha256 of the JSON-encoded results (two builds
// that simulate identically give equal digests on equal seeds), and the
// host's speed during the run as the benchmark's reference kernel read
// it, in ns per step.
type Run struct {
	Seed   int64   `json:"seed"`
	Digest string  `json:"digest"`
	RefNS  float64 `json:"ref_ns"`
}

// Metric is one quantity's value in every run, in run order, with its
// summary. Bound is the regression bound as a share of the median (zero
// for per-layer metrics, which carry none).
type Metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Doc     string    `json:"doc,omitempty"`
	Samples []float64 `json:"samples"`
	Summary Summary   `json:"summary"`
}

// Summary is the spread of a sample: median, quartiles, interquartile
// range, coefficient of variation (sample standard deviation over mean)
// and count.
type Summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	IQR    float64 `json:"iqr"`
	CV     float64 `json:"cv"`
	N      int     `json:"n"`
}

// Summarize computes the summary of xs. Quartiles follow the exclusive
// method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's bounds are checked with.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Q1, s.Median, s.Q3 = Quartiles(xs)
	s.IQR = s.Q3 - s.Q1
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if len(xs) > 1 && mean != 0 {
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		s.CV = math.Sqrt(ss/float64(len(xs)-1)) / math.Abs(mean)
	}
	return s
}

// Quartiles returns the three cut points of xs, exclusive method, with
// the median as the middle one (it equals the ordinary median).
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Median returns the median of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := Quartiles(xs)
	return m
}

// Load reads a record; a missing file yields (nil, nil) so callers can
// start a new one.
func Load(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("record %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("record %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Save writes r as indented JSON.
func Save(path string, r *Record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Find returns the named workload, or nil.
func (r *Record) Find(name string) *Workload {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// Find returns the named metric, or nil.
func (w *Workload) Find(name string) *Metric {
	for i := range w.Metrics {
		if w.Metrics[i].Name == name {
			return &w.Metrics[i]
		}
	}
	return nil
}
