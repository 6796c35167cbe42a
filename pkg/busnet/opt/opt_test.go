package opt

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

func testProblem() Problem {
	base := busnet.DefaultConfig().AtHorizon(2500)
	base.Seed = 7
	base.Processors = 8
	base.ThinkRate = 0.08
	return Problem{
		Space: Space{
			Base:         base,
			Buses:        []int{1, 2},
			BufferDepths: []int{1, 4},
		},
		Objective: Objective{Goal: MaxThroughput},
		Race:      Race{InitialReplications: 3, MaxReplications: 12},
	}
}

// exhaustiveArgBest runs the brute-force baseline the optimizer is
// judged against: every within-budget candidate at the full replication
// cap, best native score wins.
func exhaustiveArgBest(t *testing.T, p Problem, cands []Candidate) (int, sweep.Result) {
	t.Helper()
	var cfgs []busnet.Config
	var idx []int
	for i, c := range cands {
		if !c.OverBudget {
			cfgs = append(cfgs, c.Config)
			idx = append(idx, i)
		}
	}
	rMax := p.Race.MaxReplications
	res, err := sweep.Run(sweep.Spec{Points: cfgs, Replications: rMax})
	if err != nil {
		t.Fatal(err)
	}
	dir := direction(p.Objective.Goal)
	best := 0
	for i := range res.Points {
		if dir*res.Points[i].Throughput.Mean < dir*res.Points[best].Throughput.Mean {
			best = i
		}
	}
	return idx[best], res
}

// The acceptance contract: on a space small enough to enumerate
// exhaustively, the optimizer's pick is the full-grid argmax (or a
// reported CI-tie containing it), for strictly fewer DES jobs than the
// exhaustive sweep spends.
func TestSolveMatchesExhaustiveArgmaxWithFewerJobs(t *testing.T) {
	p := testProblem()
	cands, err := p.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// 2 unbuffered (m ∈ {1,2}) + 4 buffered (m × depth).
	if len(cands) != 6 {
		t.Fatalf("enumerated %d candidates, want 6", len(cands))
	}
	bestIdx, full := exhaustiveArgBest(t, p, cands)
	bestCfg := full.Points[bestIdx].Config

	out, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.ExhaustiveJobs != 6*12 {
		t.Errorf("ExhaustiveJobs = %d, want 72", out.ExhaustiveJobs)
	}
	if out.DESJobs >= out.ExhaustiveJobs {
		t.Errorf("race spent %d DES jobs, exhaustive needs only %d — no saving", out.DESJobs, out.ExhaustiveJobs)
	}
	winner := out.Winner()
	if winner.Status != StatusWinner {
		t.Fatalf("Ranked[0].Status = %s, want winner", winner.Status)
	}
	match := func(e Evaluated) bool {
		got := e.Config
		got.Quantiles = bestCfg.Quantiles // p99 goals toggle collection; not an identity field here
		return got.Normalized() == bestCfg.Normalized()
	}
	if !match(winner) {
		// The race may stop at a reported tie; the argmax must be in it.
		if !out.Tie {
			t.Fatalf("winner %s is not the exhaustive argmax %s and no tie was reported",
				winner.Label(), Candidate{Config: bestCfg}.Label())
		}
		found := false
		for _, e := range out.Ranked {
			if e.Status == StatusTie && match(e) {
				found = true
			}
		}
		if !found {
			t.Fatalf("exhaustive argmax %s missing from the reported tie set",
				Candidate{Config: bestCfg}.Label())
		}
	}
	// Every candidate appears in the table exactly once.
	if len(out.Ranked) != len(cands) {
		t.Errorf("ranked table has %d rows, want %d", len(out.Ranked), len(cands))
	}
}

// The whole outcome is deterministic in the problem: byte-identical
// JSON across runs and worker counts.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	enc := func(workers int) []byte {
		p := testProblem()
		p.Race.Workers = workers
		out, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ref := enc(1)
	for _, w := range []int{3, 8} {
		if !bytes.Equal(ref, enc(w)) {
			t.Fatalf("outcome differs between 1 and %d workers", w)
		}
	}
}

func TestBudgetCostModelAndExclusion(t *testing.T) {
	p := testProblem()
	p.Budget = Budget{Total: 40, BufferCost: 1, BusCost: 16}
	cands, err := p.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		want := 16 * float64(c.Config.Buses)
		if c.Config.Mode == busnet.ModeBuffered {
			want += float64(c.Config.BufferCap) * 8
		}
		if c.Cost != want {
			t.Errorf("%s cost = %v, want %v", c.Label(), c.Cost, want)
		}
		if c.OverBudget != (want > 40) {
			t.Errorf("%s over-budget = %v at cost %v (total 40)", c.Label(), c.OverBudget, want)
		}
	}
	// buffered d=4 m=2: 32 + 32 = 64 > 40 must be excluded from racing.
	out, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range out.Ranked {
		if e.OverBudget && e.Status != StatusOverBudget {
			t.Errorf("over-budget candidate %s raced with status %s", e.Label(), e.Status)
		}
		if e.Status == StatusOverBudget && e.Replications != 0 {
			t.Errorf("over-budget candidate %s consumed %d replications", e.Label(), e.Replications)
		}
	}
	if out.Winner().OverBudget {
		t.Error("winner exceeds the budget")
	}
}

func TestInfiniteBufferCost(t *testing.T) {
	b := Budget{BufferCost: 1, BusCost: 1}
	cfg := busnet.DefaultConfig()
	cfg.Mode = busnet.ModeBuffered
	cfg.BufferCap = busnet.Infinite
	if cost := b.Cost(cfg); !math.IsInf(cost, 1) {
		t.Errorf("infinite depth with paid buffers costs %v, want +Inf", cost)
	}
	if FormatCost(math.Inf(1)) != "inf" {
		t.Errorf("FormatCost(+Inf) = %q", FormatCost(math.Inf(1)))
	}
	free := Budget{BusCost: 1}
	if cost := free.Cost(cfg); cost != 1 {
		t.Errorf("infinite depth with free buffers costs %v, want bus cost only", cost)
	}
}

// MinCostAtSLO: the winner must be feasible at the SLO and no cheaper
// candidate may be exhaustively feasible.
func TestSolveMinCostAtSLO(t *testing.T) {
	p := testProblem()
	p.Objective = Objective{Goal: MinCostAtSLO, SLOMeanResponse: 2.2}
	p.Budget = Budget{BufferCost: 1, BusCost: 16}
	out, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	w := out.Winner()
	if w.Score.CIUndefined || w.Score.Hi > p.Objective.SLOMeanResponse {
		t.Fatalf("winner %s interval [%v, %v] does not meet SLO %v",
			w.Label(), w.Score.Lo, w.Score.Hi, p.Objective.SLOMeanResponse)
	}
	// Exhaustive feasibility check at the cap for every cheaper candidate.
	cands, err := p.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.OverBudget || c.Cost >= w.Cost {
			continue
		}
		res, err := sweep.Run(sweep.Spec{Points: []busnet.Config{c.Config}, Replications: p.Race.MaxReplications})
		if err != nil {
			t.Fatal(err)
		}
		if mr := res.Points[0].MeanResponse; mr.Hi <= p.Objective.SLOMeanResponse {
			t.Errorf("cheaper candidate %s (cost %v) is exhaustively feasible (Hi %v ≤ SLO) but %s won at cost %v",
				c.Label(), c.Cost, mr.Hi, w.Label(), w.Cost)
		}
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	p := testProblem()
	p.Objective.Goal = "fastest"
	if _, err := Solve(p); err == nil || !strings.Contains(err.Error(), "unknown goal") {
		t.Errorf("unknown goal err = %v", err)
	}
	p = testProblem()
	p.Objective = Objective{Goal: MinCostAtSLO}
	if _, err := Solve(p); err == nil || !strings.Contains(err.Error(), "slo_mean_response") {
		t.Errorf("missing SLO err = %v", err)
	}
	p = testProblem()
	p.Budget = Budget{Total: 1, BusCost: 100}
	if _, err := Solve(p); err == nil || !strings.Contains(err.Error(), "exceeds the budget") {
		t.Errorf("all-over-budget err = %v", err)
	}
	p = testProblem()
	p.Space.Modes = []string{"lossy"}
	if _, err := Solve(p); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("bad mode err = %v", err)
	}
}

// The p99 goal reduces per-replication tail latencies, which requires
// histogram collection — Solve must turn it on by itself.
func TestSolveP99EnablesQuantiles(t *testing.T) {
	p := testProblem()
	p.Objective.Goal = MinP99Response
	p.Space.Buses = []int{1}
	p.Space.BufferDepths = []int{1}
	p.Race = Race{InitialReplications: 3, MaxReplications: 6}
	out, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	w := out.Winner()
	if !w.Config.Quantiles {
		t.Error("winner config ran without quantile collection")
	}
	if w.Score.Mean <= 0 {
		t.Errorf("p99 score = %v, want > 0", w.Score.Mean)
	}
}

func TestEnumerateUnbufferedIgnoresDepthAxis(t *testing.T) {
	p := testProblem()
	p.Space.Modes = []string{busnet.ModeUnbuffered}
	cands, err := p.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// Depth axis collapses: one candidate per bus count, no duplicates.
	if len(cands) != 2 {
		t.Fatalf("unbuffered-only space enumerated %d candidates, want 2", len(cands))
	}
	seen := map[string]bool{}
	for _, c := range cands {
		key := c.Label()
		if seen[key] {
			t.Errorf("duplicate candidate %s", key)
		}
		seen[key] = true
	}
}

// A bus count below 1 is refused by index. Config reads Buses 0 as the
// default single bus, so an "m=0" candidate would be priced with no bus
// while simulating one, and win a cost-driven goal over the identical
// "m=1" candidate.
func TestEnumerateRejectsBusCountBelowOne(t *testing.T) {
	for _, tt := range []struct {
		buses []int
		want  string
	}{
		{[]int{0, 1}, "space.buses[0] = 0"},
		{[]int{1, -2}, "space.buses[1] = -2"},
	} {
		p := testProblem()
		p.Space.Buses = tt.buses
		p.Objective = Objective{Goal: MinCostAtSLO, SLOMeanResponse: 10}
		p.Budget = Budget{BufferCost: 1, BusCost: 32}
		if _, err := p.Enumerate(); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("Enumerate with buses %v: err = %v, want %q", tt.buses, err, tt.want)
		}
		if _, err := Solve(p); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("Solve with buses %v: err = %v, want %q", tt.buses, err, tt.want)
		}
	}
}

func TestParseGoal(t *testing.T) {
	if g, err := ParseGoal(""); err != nil || g != MaxThroughput {
		t.Errorf("ParseGoal(\"\") = %v, %v", g, err)
	}
	for _, g := range []Goal{MaxThroughput, MinMeanResponse, MinP99Response, MinCostAtSLO} {
		got, err := ParseGoal(string(g))
		if err != nil || got != g {
			t.Errorf("ParseGoal(%q) = %v, %v", g, got, err)
		}
	}
	if _, err := ParseGoal("min-regret"); err == nil {
		t.Error("unknown goal accepted")
	}
}
