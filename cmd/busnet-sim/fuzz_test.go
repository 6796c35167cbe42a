package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
)

// FuzzScenarioConfigJSON fuzzes the Config JSON decode → Validate →
// re-encode pipeline every report row goes through, seeded with the
// real configs of every registered scenario — the corpus is the
// registry itself, so new scenarios automatically widen it. For any
// byte string that decodes into a valid config, the canonical form must
// round-trip through JSON unchanged and still validate.
func FuzzScenarioConfigJSON(f *testing.F) {
	params := Params{Seed: 42, Horizon: 2000, Replications: 2}
	for _, name := range scenarioNames() {
		for _, c := range registry[name].Curves {
			if c.grid == nil {
				continue // topology curves seed FuzzTopologyJSON instead
			}
			points, err := c.grid(params).Points()
			if err != nil {
				f.Fatal(err)
			}
			for _, cfg := range points {
				blob, err := json.Marshal(cfg)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(blob)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg busnet.Config
		if err := json.Unmarshal(data, &cfg); err != nil {
			t.Skip("not a config document")
		}
		if cfg.Processors > 1<<12 || cfg.BufferCap > 1<<12 || cfg.Buses > 1<<12 ||
			len(cfg.Weights) > 1<<12 {
			t.Skip("legal but deliberately O(N·cap) — not a robustness finding")
		}
		if err := cfg.Validate(); err != nil {
			return // rejected cleanly
		}
		canon := cfg.Normalized()
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical config does not marshal: %v\n%+v", err, canon)
		}
		var back busnet.Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, blob)
		}
		if back != canon {
			t.Fatalf("JSON round trip changed the config:\n%+v\nvs\n%+v", back, canon)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped config no longer validates: %v\n%s", err, blob)
		}
	})
}

// FuzzTopologyJSON fuzzes the Topology decode → Validate → re-encode
// pipeline the topology curves ride, seeded with every operating point
// of the registered topology scenarios. Topologies carry slices, so the
// round-trip contract is at the JSON level: the normalized form must
// re-encode to the same bytes after a decode cycle and still validate.
func FuzzTopologyJSON(f *testing.F) {
	params := Params{Seed: 42, Horizon: 2000, Replications: 2}
	for _, name := range scenarioNames() {
		for _, c := range registry[name].Curves {
			if c.topo == nil {
				continue
			}
			for _, top := range c.topo(params) {
				blob, err := json.Marshal(top)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(blob)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var top busnet.Topology
		if err := json.Unmarshal(data, &top); err != nil {
			t.Skip("not a topology document")
		}
		if len(top.Nodes) > 1<<8 || len(top.Links) > 1<<8 {
			t.Skip("legal but deliberately large — not a robustness finding")
		}
		total := 0
		for _, n := range top.Nodes {
			if n.Processors > 1<<12 || n.BufferCap > 1<<12 || n.Buses > 1<<12 ||
				len(n.Weights) > 1<<12 || len(n.Route) > 1<<8 {
				t.Skip("legal but deliberately O(N·cap) — not a robustness finding")
			}
			total += n.Processors
		}
		if total > 1<<12 {
			t.Skip("legal but deliberately large fabric")
		}
		if err := top.Validate(); err != nil {
			return // rejected cleanly
		}
		canon := top.Normalized()
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical topology does not marshal: %v\n%+v", err, canon)
		}
		var back busnet.Topology
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, blob)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-encode failed: %v\n%+v", err, back)
		}
		if !bytes.Equal(blob, again) {
			t.Fatalf("JSON round trip changed the topology:\n%s\nvs\n%s", blob, again)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped topology no longer validates: %v\n%s", err, blob)
		}
	})
}
