package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/busnet/busnet/pkg/busnet"
)

// Manifest is the run's provenance record, written next to (never
// into) the report when -manifest is given. ConfigHash identifies what
// was asked for — a sha256 over the canonical JSON of the scenario name
// and the result-affecting parameters (Workers is excluded by its
// json:"-" tag, exactly as in the report echo) — while OutputSHA256
// fingerprints what came out, so two runs can be compared without
// diffing reports. WallTimeSeconds is the one deliberately
// nondeterministic field; everything else is a pure function of the
// invocation.
type Manifest struct {
	Scenario        string   `json:"scenario"`
	ConfigHash      string   `json:"config_hash"`
	Seed            int64    `json:"seed"`
	Horizon         float64  `json:"horizon"`
	Replications    int      `json:"replications"`
	Backends        []string `json:"backends"`
	Format          string   `json:"format"`
	GoVersion       string   `json:"go_version"`
	WallTimeSeconds float64  `json:"wall_time_seconds"`
	OutputSHA256    string   `json:"output_sha256"`
}

// configHash derives the manifest's invocation fingerprint via
// busnet.CanonicalHash, the canonical hash behind Config.Hash, so the
// manifest and the library can never disagree about what "same
// configuration" means.
func configHash(scenario string, p Params) (string, error) {
	return busnet.CanonicalHash(struct {
		Scenario string `json:"scenario"`
		Params   Params `json:"params"`
	}{scenario, p})
}

// buildManifest assembles the provenance record for a finished run.
func buildManifest(sc Scenario, p Params, format string, wall float64, outputSum []byte) (Manifest, error) {
	hash, err := configHash(sc.Name, p)
	if err != nil {
		return Manifest{}, err
	}
	backends := make([]string, 0, len(sc.Curves))
	if sc.Opt != nil {
		// The optimizer races candidates under the simulator after a
		// closed-form prune, so an optimize run exercises all three
		// backends regardless of which curves the scenario declares.
		backends = append(backends,
			string(busnet.BackendSim), string(busnet.BackendAnalytic), string(busnet.BackendFluid))
	}
	seen := map[busnet.Backend]bool{}
	for _, c := range sc.Curves {
		b, err := busnet.ParseBackend(string(c.backend))
		if err != nil {
			return Manifest{}, err
		}
		if !seen[b] {
			seen[b] = true
			backends = append(backends, string(b))
		}
	}
	return Manifest{
		Scenario:        sc.Name,
		ConfigHash:      hash,
		Seed:            p.Seed,
		Horizon:         p.Horizon,
		Replications:    p.Replications,
		Backends:        backends,
		Format:          format,
		GoVersion:       runtime.Version(),
		WallTimeSeconds: wall,
		OutputSHA256:    hex.EncodeToString(outputSum),
	}, nil
}

// writeManifestFile renders the manifest as indented JSON at path.
func writeManifestFile(path string, m Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeScenarioTrace runs one extra traced replication of the
// scenario's first sim-backed curve's first operating point — fixed by
// the seed, independent of the sweep itself, so attaching -trace never
// perturbs the report — and writes the recorder's Chrome trace-event
// JSON to w. Open the file at ui.perfetto.dev or chrome://tracing.
func writeScenarioTrace(sc Scenario, p Params, w io.Writer) error {
	rec := busnet.NewFlightRecorder(1 << 15)
	if sc.Opt != nil {
		// Optimizer scenarios declare no curves; trace the first
		// enumerated candidate, which is as deterministic as a curve's
		// first point — enumeration order is fixed by the space.
		cands, err := sc.Opt(p).Enumerate()
		if err != nil {
			return err
		}
		if _, err := busnet.EvaluateTraced(cands[0].Config, busnet.BackendSim, rec); err != nil {
			return err
		}
		return rec.WriteTrace(w)
	}
	for _, c := range sc.Curves {
		backend, err := busnet.ParseBackend(string(c.backend))
		if err != nil {
			return err
		}
		if backend != busnet.BackendSim {
			continue
		}
		if c.topo != nil {
			points := c.topo(p)
			if len(points) == 0 {
				return fmt.Errorf("curve %s declares no topology points", c.Name)
			}
			if _, err := busnet.EvaluateTopologyTraced(points[0], backend, rec); err != nil {
				return err
			}
		} else {
			points, err := c.grid(p).Points()
			if err != nil {
				return err
			}
			if len(points) == 0 {
				return fmt.Errorf("curve %s expands to no points", c.Name)
			}
			if _, err := busnet.EvaluateTraced(points[0], backend, rec); err != nil {
				return err
			}
		}
		return rec.WriteTrace(w)
	}
	return fmt.Errorf("scenario %s has no sim-backed curve to trace", sc.Name)
}
