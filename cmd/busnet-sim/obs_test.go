package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// Output hygiene: the report owns stdout, observability owns stderr.
// -progress must not move a single stdout byte in either format.
func TestProgressLeavesStdoutByteIdentical(t *testing.T) {
	for _, format := range []string{"json", "csv"} {
		render := func(extra ...string) (string, string) {
			var out, errOut bytes.Buffer
			args := append([]string{"-scenario", "finite-buffer", "-seed", "7", "-horizon", "1500",
				"-replications", "2", "-format", format}, extra...)
			if err := run(args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			return out.String(), errOut.String()
		}
		plain, _ := render()
		tracked, status := render("-progress")
		if plain != tracked {
			t.Fatalf("%s stdout differs with -progress attached", format)
		}
		if status == "" {
			t.Fatalf("%s run with -progress wrote nothing to stderr", format)
		}
	}
}

// The three profiling flags must each produce a non-empty artifact
// without touching the report.
func TestProfilingFlagsWriteArtifacts(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	exec := filepath.Join(dir, "exec.trace")
	var out, errOut bytes.Buffer
	args := []string{"-scenario", "finite-buffer", "-horizon", "1200", "-replications", "2",
		"-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Error("profiled run corrupted the JSON report")
	}
	for _, path := range []string{cpu, mem, exec} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile artifact missing: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestManifestRecordsProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	var out, errOut bytes.Buffer
	args := []string{"-scenario", "finite-buffer", "-seed", "9", "-horizon", "1200",
		"-replications", "2", "-manifest", path}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Scenario != "finite-buffer" || m.Seed != 9 || m.Horizon != 1200 || m.Replications != 2 {
		t.Errorf("manifest does not echo the invocation: %+v", m)
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", m.GoVersion, runtime.Version())
	}
	if len(m.ConfigHash) != 64 {
		t.Errorf("config_hash %q is not a sha256 hex digest", m.ConfigHash)
	}
	if !(m.WallTimeSeconds > 0) {
		t.Errorf("wall_time_seconds = %v, want > 0", m.WallTimeSeconds)
	}
	if len(m.Backends) == 0 || m.Backends[0] != "sim" {
		t.Errorf("backends = %v, want the sim backend listed", m.Backends)
	}
	// The output hash fingerprints exactly the bytes on stdout.
	sum := sha256.Sum256(out.Bytes())
	if m.OutputSHA256 != hex.EncodeToString(sum[:]) {
		t.Errorf("output_sha256 does not match the report bytes")
	}
	// Same invocation, same config hash; different seed, different hash.
	var out2, errOut2 bytes.Buffer
	path2 := filepath.Join(t.TempDir(), "manifest2.json")
	args2 := []string{"-scenario", "finite-buffer", "-seed", "10", "-horizon", "1200",
		"-replications", "2", "-manifest", path2}
	if err := run(args2, &out2, &errOut2); err != nil {
		t.Fatal(err)
	}
	blob2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	var m2 Manifest
	if err := json.Unmarshal(blob2, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.ConfigHash == m.ConfigHash {
		t.Error("different seeds produced the same config_hash")
	}
}

// validateChromeTrace asserts the file is Chrome trace-event JSON:
// the traceEvents envelope, a known phase on every event, non-negative
// durations on complete spans, thread scope on instants.
func validateChromeTrace(t *testing.T, blob []byte) map[string]int {
	t.Helper()
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	cats := map[string]int{}
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			if d, ok := ev["dur"].(float64); !ok || d < 0 {
				t.Fatalf("complete span with bad dur: %v", ev)
			}
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("instant not thread-scoped: %v", ev)
			}
		case "C", "M":
		default:
			t.Fatalf("unknown phase %q in event %v", ph, ev)
		}
		if name, _ := ev["name"].(string); name == "" {
			t.Fatalf("event missing name: %v", ev)
		}
		if c, ok := ev["cat"].(string); ok {
			cats[c]++
		}
	}
	return cats
}

// -trace on a topology scenario exports a schema-valid Chrome trace of
// the first sim point, deterministically for a fixed seed, without
// perturbing the report.
func TestTraceExportFlag(t *testing.T) {
	render := func() ([]byte, string) {
		path := filepath.Join(t.TempDir(), "trace.json")
		var out, errOut bytes.Buffer
		args := []string{"-scenario", "bridge-depth", "-seed", "42", "-horizon", "2000",
			"-replications", "2", "-trace", path}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob, out.String()
	}
	blob, report := render()
	cats := validateChromeTrace(t, blob)
	for _, want := range []string{"event-fired", "hop-grant", "hop-complete", "bridge-enqueue"} {
		if cats[want] == 0 {
			t.Errorf("trace has no %q events (got %v)", want, cats)
		}
	}
	blob2, report2 := render()
	if !bytes.Equal(blob, blob2) {
		t.Error("fixed-seed trace export is not deterministic")
	}
	if report != report2 {
		t.Error("report not deterministic under -trace")
	}
	// Attaching -trace never changes the report itself.
	var plain, errOut bytes.Buffer
	args := []string{"-scenario", "bridge-depth", "-seed", "42", "-horizon", "2000", "-replications", "2"}
	if err := run(args, &plain, &errOut); err != nil {
		t.Fatal(err)
	}
	if plain.String() != report {
		t.Error("-trace changed the stdout report")
	}
	// A flat (grid) scenario traces too.
	path := filepath.Join(t.TempDir(), "flat.json")
	var out2, errOut2 bytes.Buffer
	args = []string{"-scenario", "finite-buffer", "-horizon", "1200", "-replications", "2", "-trace", path}
	if err := run(args, &out2, &errOut2); err != nil {
		t.Fatal(err)
	}
	flatBlob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flatCats := validateChromeTrace(t, flatBlob)
	if flatCats["event-fired"] == 0 || flatCats["hop-grant"] == 0 {
		t.Errorf("flat trace missing engine/arbitration events: %v", flatCats)
	}
}

// Sim-backed rows carry live diagnostics counters; model-backend rows
// leave every diagnostics cell empty — the counters measure machinery
// that never ran.
func TestDiagnosticsCSVColumns(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-scenario", "fluid-curves", "-horizon", "1500", "-replications", "2", "-format", "csv"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := rows[0]
	backend := col(t, header, "backend")
	fired := col(t, header, "events_fired")
	scheduled := col(t, header, "events_scheduled")
	scan := col(t, header, "arb_scan_slots")
	for _, row := range rows[1:] {
		switch backend(row) {
		case "sim":
			n, err := strconv.ParseUint(fired(row), 10, 64)
			if err != nil || n == 0 {
				t.Fatalf("sim row events_fired = %q, want a positive count", fired(row))
			}
			if s, _ := strconv.ParseUint(scheduled(row), 10, 64); s < n {
				t.Fatalf("events_scheduled %q < events_fired %q", scheduled(row), fired(row))
			}
			if scan(row) == "" || scan(row) == "0" {
				t.Fatalf("sim row arb_scan_slots = %q, want a positive count", scan(row))
			}
		default:
			if fired(row) != "" || scan(row) != "" {
				t.Fatalf("%s row carries diagnostics cells: fired=%q scan=%q",
					backend(row), fired(row), scan(row))
			}
		}
	}
	// Topology rows repeat their point's counters, bridge columns live.
	var topoOut bytes.Buffer
	args = []string{"-scenario", "bridge-depth", "-horizon", "2000", "-replications", "2", "-format", "csv"}
	if err := run(args, &topoOut, &errOut); err != nil {
		t.Fatal(err)
	}
	topoRows, err := csv.NewReader(&topoOut).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	crossings := col(t, topoRows[0], "bridge_crossings")
	point := col(t, topoRows[0], "point")
	perPoint := map[string]string{}
	for _, row := range topoRows[1:] {
		n, err := strconv.ParseUint(crossings(row), 10, 64)
		if err != nil || n == 0 {
			t.Fatalf("topology row bridge_crossings = %q, want a positive count", crossings(row))
		}
		if prev, ok := perPoint[point(row)]; ok && prev != crossings(row) {
			t.Fatalf("point %s: bridge_crossings differs across its hop rows", point(row))
		}
		perPoint[point(row)] = crossings(row)
	}
}
