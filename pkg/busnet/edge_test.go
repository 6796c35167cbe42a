package busnet

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestDESEdgeBehaviour pins the simulator at the edges of its domain:
// horizons of 10⁹ and 10¹² with the load scaled to one request per
// station per horizon (far-future events over a huge window base), λ/μ
// of 10⁻⁶ and, unbuffered, 10⁶, μ = 10⁶, more buses than stations, a
// single station in both modes, and depth-1 bridges on every hop of a
// three-hop chain. Each must run to its horizon, repeat bit for bit,
// and report only finite, non-negative summaries: encoding/json refuses
// NaN and ±Inf, and a walk of the encoded result, past the echo of its
// input, finds no negative value.
func TestDESEdgeBehaviour(t *testing.T) {
	flat := func(edit func(*Config)) func() (any, float64, error) {
		cfg := DefaultConfig()
		cfg.Seed = 7
		cfg.Horizon, cfg.Warmup = 20_000, 2_000
		edit(&cfg)
		return func() (any, float64, error) {
			ev, err := Evaluate(cfg, BackendSim)
			if err != nil {
				return nil, 0, err
			}
			return ev, cfg.Horizon - cfg.Warmup, nil
		}
	}
	horizon := func(h float64) func(*Config) {
		return func(c *Config) {
			c.Horizon, c.Warmup = h, h/10
			c.ThinkRate = 1 / h
		}
	}
	chain := Topology{
		Nodes: []Node{
			{Name: "cpu", ServiceRate: 1, Processors: 16, ThinkRate: 0.03,
				Mode: ModeBuffered, BufferCap: Infinite, Route: []string{"l2", "mem"}},
			{Name: "l2", ServiceRate: 0.9},
			{Name: "mem", ServiceRate: 0.8},
		},
		Links:   []Link{{From: "cpu", To: "l2", Buffer: 1}, {From: "l2", To: "mem", Buffer: 1}},
		Seed:    7,
		Horizon: 20_000,
		Warmup:  2_000,
	}
	cases := []struct {
		name string
		run  func() (any, float64, error)
	}{
		{"horizon-1e9", flat(horizon(1e9))},
		{"horizon-1e12", flat(horizon(1e12))},
		{"load-1e-6", flat(func(c *Config) {
			c.ThinkRate = 1e-6
			c.Horizon, c.Warmup = 1e7, 1e6
		})},
		{"load-1e6-unbuffered", flat(func(c *Config) { c.ThinkRate = 1e6 })},
		{"service-1e6", flat(func(c *Config) {
			c.ServiceRate = 1e6
			c.Horizon, c.Warmup = 2_000, 200
		})},
		{"2-stations-8-buses", flat(func(c *Config) {
			c.Processors, c.Buses = 2, 8
			c.ThinkRate = 0.5
		})},
		{"1-station-unbuffered", flat(func(c *Config) { c.Processors = 1 })},
		{"1-station-buffered", flat(func(c *Config) {
			c.Processors = 1
			c.Mode, c.BufferCap = ModeBuffered, Infinite
		})},
		{"three-hop-depth-1", func() (any, float64, error) {
			ev, err := EvaluateTopology(chain, BackendSim)
			if err != nil {
				return nil, 0, err
			}
			return ev, chain.Horizon - chain.Warmup, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ev, measured, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			first, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("result does not encode (a NaN or infinite summary?): %v", err)
			}
			again, _, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			second, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("two runs differ:\n%s\n%s", first, second)
			}
			var doc struct {
				Results struct {
					MeasuredTime float64 `json:"measured_time"`
				} `json:"results"`
			}
			if err := json.Unmarshal(first, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Results.MeasuredTime != measured {
				t.Errorf("measured time %v, want the full window %v", doc.Results.MeasuredTime, measured)
			}
			var tree any
			if err := json.Unmarshal(first, &tree); err != nil {
				t.Fatal(err)
			}
			walkNumbers(tree, "", func(path string, x float64) {
				if x < 0 {
					t.Errorf("%s = %v, want ≥ 0", path, x)
				}
			})
		})
	}
}

// A modulated source whose hidden chain switches far more often than it
// arrives would stall the simulator, which walks every switch up to the
// next arrival: Evaluate returns the refusal, naming the ratio, instead
// of running. MMPP2Traffic(1e-7, 0, 1, 1) switches 2·10⁷ times per
// arrival and OnOffTraffic(1e-7, 0.5, 1) 4·10⁷.
func TestDESRefusesStallingModulatedSources(t *testing.T) {
	for _, tc := range []struct {
		traffic Traffic
		want    string
	}{
		{MMPP2Traffic(1e-7, 0, 1, 1), "mmpp2 hidden chain switches 2e+07 times per arrival"},
		{OnOffTraffic(1e-7, 0.5, 1), "onoff hidden chain switches 4e+07 times per arrival"},
	} {
		cfg := DefaultConfig()
		cfg.Processors = 1
		cfg.Traffic = tc.traffic
		cfg.Horizon, cfg.Warmup = 1, 0
		if _, err := Evaluate(cfg, BackendSim); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal containing %q", tc.traffic.Kind, err, tc.want)
		}
	}
}

// walkNumbers calls visit on every number of a decoded JSON value, with
// its path, skipping the echoed input ("config", "topology"), where
// Infinite is -1.
func walkNumbers(v any, path string, visit func(string, float64)) {
	switch v := v.(type) {
	case float64:
		visit(path, v)
	case map[string]any:
		for k, x := range v {
			if k != "config" && k != "topology" {
				walkNumbers(x, path+"."+k, visit)
			}
		}
	case []any:
		for i, x := range v {
			walkNumbers(x, path+"["+strconv.Itoa(i)+"]", visit)
		}
	}
}
