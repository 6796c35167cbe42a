package opt

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
)

// The race's output lock: testdata/golden_outcomes.jsonl holds one
// Outcome's JSON per line for every goal on 24 consecutive seeds of the
// optimize-short problem, generated when each escalation round still
// re-requested every replication through a result cache. Solve must
// reproduce every line byte for byte — ranked table, scores, ties and
// the des_jobs/cache_hits ledger — on one worker and on four.
// Regenerate only for a deliberate output-changing change:
// go test ./pkg/busnet/opt -run GoldenOutcomes -update
var updateGolden = flag.Bool("update", false, "rewrite the optimizer golden file")

// shortProblem is the optimize-short problem for goal at seed: N = 16,
// λ = 0.05, blocking or 1/2/4-deep buffers on 1 or 2 buses under budget
// 96, horizon 200, racing 10 → 20 → 40 replications; MinCostAtSLO's
// SLO is a mean response of 2.5.
func shortProblem(goal Goal, seed int64) Problem {
	base := busnet.DefaultConfig().AtHorizon(200)
	base.Seed = seed
	base.Processors = 16
	base.ThinkRate = 0.05
	return Problem{
		Space:     Space{Base: base, Buses: []int{1, 2}, BufferDepths: []int{1, 2, 4}},
		Objective: Objective{Goal: goal, SLOMeanResponse: 2.5},
		Budget:    Budget{Total: 96, BufferCost: 1, BusCost: 32},
		Race:      Race{InitialReplications: 10, MaxReplications: 40},
	}
}

// goldenProblem is shortProblem with a racing schedule the seed picks,
// so the golden covers the default 4 → 32, the bench's 10 → 40, and
// 5 → 32, whose last round adds 12 replications rather than doubling.
func goldenProblem(goal Goal, seed int64) Problem {
	p := shortProblem(goal, seed)
	races := []Race{{}, p.Race, {InitialReplications: 5, MaxReplications: 32}}
	p.Race = races[seed%int64(len(races))]
	return p
}

func TestGoldenOutcomes(t *testing.T) {
	goals := []Goal{MaxThroughput, MinMeanResponse, MinP99Response, MinCostAtSLO}
	solveAll := func(workers int) []byte {
		var buf bytes.Buffer
		for _, goal := range goals {
			for seed := int64(1); seed <= 24; seed++ {
				p := goldenProblem(goal, seed)
				p.Race.Workers = workers
				out, err := Solve(p)
				if err != nil {
					t.Fatalf("%s seed %d: %v", goal, seed, err)
				}
				blob, err := json.Marshal(out)
				if err != nil {
					t.Fatal(err)
				}
				buf.Write(blob)
				buf.WriteByte('\n')
			}
		}
		return buf.Bytes()
	}
	path := filepath.Join("testdata", "golden_outcomes.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, solveAll(1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	workers := []int{1, 4}
	if testing.Short() {
		// The race detector's short run keeps the concurrent pool alone.
		workers = workers[1:]
	}
	for _, w := range workers {
		if got := solveAll(w); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: %s", w, firstDiff(got, want))
		}
	}
}

// One MinP99Response solve of the optimize-short problem allocates
// about 913 objects: its 100 simulated replications' Results, its
// enumeration and model prune, and a few per racing round. The race
// keeps one value per replication; when each round re-requested every
// replication through a result cache and reduced full sweep points, with
// kept runs for the p99s, the solve allocated 1 883.
func TestP99SolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards pooled values at random under the race detector")
	}
	p := shortProblem(MinP99Response, 42)
	p.Race.Workers = 1
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 960.0; allocs > limit {
		t.Errorf("a MinP99Response solve allocates %.0f times, limit %.0f", allocs, limit)
	}
}

// firstDiff names the first golden line that got does not reproduce.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(g), len(w)) {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d diverged from the golden:\n got %s\nwant %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, golden has %d", len(g), len(w))
}
