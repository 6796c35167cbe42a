package opt

import (
	"fmt"
	"math"
	"sort"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// Default racing schedule: 4 replications doubling to 32.
const (
	DefaultInitialReplications = 4
	DefaultMaxReplications     = 32
)

// Status records how a candidate left the race.
type Status string

const (
	// StatusWinner is the single best candidate the race decided on.
	StatusWinner Status = "winner"
	// StatusTie marks candidates the data could not separate from the
	// winner at the replication cap — their confidence intervals still
	// overlap the leader's. Reported, never silently ranked away.
	StatusTie Status = "tie"
	// StatusFeasible (MinCostAtSLO only) marks candidates whose whole
	// interval met the SLO but that cost more than the winner.
	StatusFeasible Status = "feasible"
	// StatusEliminated marks candidates the race dropped with
	// confidence: their interval separated from the leader's (or, for
	// MinCostAtSLO, a cheaper candidate was already proven feasible).
	StatusEliminated Status = "eliminated"
	// StatusInfeasible (MinCostAtSLO only) marks candidates whose whole
	// interval exceeded the SLO.
	StatusInfeasible Status = "infeasible"
	// StatusPruned marks candidates the closed-form models scored into
	// the discarded half before any simulation ran.
	StatusPruned Status = "pruned"
	// StatusOverBudget marks candidates priced out by Budget.Total
	// before any evaluation.
	StatusOverBudget Status = "over-budget"
)

// Evaluated is one candidate's final record in the outcome.
type Evaluated struct {
	Candidate
	Status Status `json:"status"`
	// Score is the objective metric in its native direction (throughput
	// for MaxThroughput, a response time otherwise), reduced across the
	// candidate's racing replications. Zero-valued when the candidate
	// never reached the simulator (pruned / over-budget).
	Score sweep.Stat `json:"score"`
	// Replications is the DES replication count behind Score — how far
	// this candidate survived the escalation schedule.
	Replications int `json:"replications"`
	// ModelEstimate is the closed-form prune-phase estimate of the
	// metric (native direction); nil when neither model accepted the
	// config or the goal skips pruning.
	ModelEstimate *float64 `json:"model_estimate,omitempty"`
}

// Outcome is a completed optimization: every enumerated candidate
// ranked best-first, plus the race's spending ledger.
type Outcome struct {
	Goal            Goal    `json:"goal"`
	SLOMeanResponse float64 `json:"slo_mean_response,omitempty"`
	// Ranked lists every candidate — winner first, then ties, then the
	// eliminated/infeasible in quality order, then pruned, then
	// over-budget.
	Ranked []Evaluated `json:"ranked"`
	// Tie reports that the replication cap ran out with more than one
	// candidate still statistically indistinguishable from the winner;
	// the winner is then the best point estimate among the tied set,
	// and every StatusTie row is an equally defensible pick.
	Tie bool `json:"tie,omitempty"`
	// DESJobs is the number of replications the race simulated, each
	// candidate's streams once. CacheHits is the number of replications
	// it reused from earlier rounds: a round that raises a candidate from
	// r to 2r replications simulates r and reuses r. ExhaustiveJobs is
	// what brute force would have spent — every within-budget candidate
	// at the full replication cap — so DESJobs/ExhaustiveJobs is the
	// measured saving.
	DESJobs        uint64 `json:"des_jobs"`
	CacheHits      uint64 `json:"cache_hits"`
	ExhaustiveJobs uint64 `json:"exhaustive_jobs"`
	// FinalReplications is the deepest escalation level any candidate
	// reached.
	FinalReplications int `json:"final_replications"`
}

// Winner returns the ranked table's deciding row.
func (o Outcome) Winner() Evaluated {
	return o.Ranked[0]
}

// state tracks one candidate through the race.
type state struct {
	Evaluated
	enumIdx int
	sortKey float64 // minimize-direction comparison key
	// values holds the objective metric, native direction, of each
	// replication raced so far: values[k] is stream base + k's.
	values []float64
}

// Solve runs the full search: enumerate, budget-filter, model-prune,
// then race the survivors under the simulator with common random
// numbers, eliminating a candidate only when its confidence interval
// separates from the leader's and escalating replications (simulating
// only the new streams: earlier replications' values are kept) while
// intervals overlap. Deterministic for a fixed problem: the same
// spec yields the same outcome bit for bit, regardless of Race.Workers.
func Solve(p Problem) (Outcome, error) {
	goal, err := ParseGoal(string(p.Objective.Goal))
	if err != nil {
		return Outcome{}, err
	}
	if goal == MinCostAtSLO && !(p.Objective.SLOMeanResponse > 0) {
		return Outcome{}, fmt.Errorf("opt: %s needs a positive slo_mean_response", goal)
	}
	cands, err := p.Enumerate()
	if err != nil {
		return Outcome{}, err
	}
	r0 := p.Race.InitialReplications
	if r0 <= 0 {
		r0 = DefaultInitialReplications
	}
	rMax := p.Race.MaxReplications
	if rMax <= 0 {
		rMax = DefaultMaxReplications
	}
	if r0 > rMax {
		r0 = rMax
	}

	var retired []*state
	var racers []*state
	for i, c := range cands {
		s := &state{Evaluated: Evaluated{Candidate: c}, enumIdx: i}
		if goal == MinP99Response {
			// Per-replication p99s need the latency histograms on.
			s.Config.Quantiles = true
		}
		if c.OverBudget {
			s.Status = StatusOverBudget
			retired = append(retired, s)
		} else {
			racers = append(racers, s)
		}
	}
	if len(racers) == 0 {
		return Outcome{}, fmt.Errorf("opt: every candidate exceeds the budget (total %g)", p.Budget.Total)
	}
	exhaustive := uint64(len(racers)) * uint64(rMax)

	racers, pruned := prune(p, goal, racers)
	retired = append(retired, pruned...)

	out := Outcome{
		Goal:            goal,
		SLOMeanResponse: p.Objective.SLOMeanResponse,
		ExhaustiveJobs:  exhaustive,
	}
	final, err := race(p, goal, racers, r0, rMax, &out)
	if err != nil {
		return Outcome{}, err
	}
	retired = append(retired, final...)

	for _, s := range retired {
		if s.Status == StatusTie {
			out.Tie = true
		}
		if s.Evaluated.Replications > out.FinalReplications {
			out.FinalReplications = s.Evaluated.Replications
		}
	}
	out.Ranked = rank(goal, retired)
	if len(out.Ranked) == 0 || out.Ranked[0].Status != StatusWinner {
		return Outcome{}, fmt.Errorf("opt: no candidate decided the objective") // unreachable: race always crowns one
	}
	return out, nil
}

// prune scores every candidate with the closed-form models (analytic
// first, fluid as fallback) and discards the worse half before any
// simulation. Candidates neither model accepts always survive — a model
// that cannot score a configuration must not veto it. MinCostAtSLO
// skips pruning entirely: its winners live near the SLO boundary where
// "model says slower" is not "worse", so a response-ordered prune could
// discard the cheapest feasible candidate.
func prune(p Problem, goal Goal, racers []*state) (survivors, pruned []*state) {
	if goal == MinCostAtSLO || len(racers) <= 2 {
		return racers, nil
	}
	var scored, unscored []*state
	for _, s := range racers {
		est, ok := modelEstimate(s.Config, goal)
		if !ok {
			unscored = append(unscored, s)
			continue
		}
		e := est
		s.ModelEstimate = &e
		s.sortKey = direction(goal) * est
		scored = append(scored, s)
	}
	keep := p.Race.PruneKeep
	if keep <= 0 {
		keep = (len(racers) + 1) / 2
	}
	keep -= len(unscored)
	if keep < 1 {
		keep = 1
	}
	if keep >= len(scored) {
		return racers, nil
	}
	sort.SliceStable(scored, func(i, j int) bool {
		if scored[i].sortKey != scored[j].sortKey {
			return scored[i].sortKey < scored[j].sortKey
		}
		return scored[i].enumIdx < scored[j].enumIdx
	})
	for _, s := range scored[keep:] {
		s.Status = StatusPruned
	}
	survivors = append(unscored, scored[:keep]...)
	return survivors, scored[keep:]
}

// modelEstimate evaluates one candidate with the cheapest model that
// accepts it, returning the objective metric in its native direction.
func modelEstimate(cfg busnet.Config, goal Goal) (float64, bool) {
	for _, b := range []busnet.Backend{busnet.BackendAnalytic, busnet.BackendFluid} {
		ev, err := busnet.Evaluate(cfg, b)
		if err != nil {
			continue
		}
		if goal == MaxThroughput {
			return ev.Throughput, true
		}
		// MeanResponse proxies for the p99 goal too — the models have no
		// tail distribution, but response ordering is the best free signal.
		return ev.MeanResponse, true
	}
	return 0, false
}

// direction maps a goal's native metric into minimize-is-better space.
func direction(goal Goal) float64 {
	if goal == MaxThroughput {
		return -1
	}
	return 1
}

// race runs the successive-halving loop over the in-budget,
// prune-surviving candidates: bring everyone still active up to the
// current replication level, simulating only the streams a candidate
// has not run (its earlier replications' values are kept), then retire
// whoever the intervals can decide about, then double. Every candidate
// returns with a terminal Status; out's DESJobs and CacheHits count the
// replications simulated and reused.
func race(p Problem, goal Goal, racers []*state, r0, rMax int, out *Outcome) ([]*state, error) {
	dir := direction(goal)
	// Every candidate's values share one backing array, rMax apiece.
	values := make([]float64, len(racers)*rMax)
	for i, s := range racers {
		s.values = values[i*rMax : i*rMax : (i+1)*rMax]
	}
	active := racers
	var retired []*state
	var cheapestFeasible *state // MinCostAtSLO: best decided-feasible so far
	cfgs := make([]busnet.Config, 0, len(racers))
	// Every active candidate has run replications 0 … from−1: all
	// entered the race together, and each round brings every survivor
	// up to r.
	for from, r := 0, r0; len(active) > 0; from, r = r, min(2*r, rMax) {
		cfgs = cfgs[:0]
		for _, s := range active {
			// Replication k of the sweep runs stream base + from + k.
			cfg := s.Config
			cfg.Stream += uint64(from)
			cfgs = append(cfgs, cfg)
			s.values = s.values[:r]
		}
		err := sweep.Replicate(sweep.Spec{
			Points:       cfgs,
			Replications: r - from,
			Workers:      p.Race.Workers,
			Progress:     p.Race.Progress,
		}, func(pt, rep int, res *busnet.Results) {
			active[pt].values[from+rep] = objective(goal, res)
		})
		if err != nil {
			return nil, fmt.Errorf("opt: racing replications %d to %d: %w", from, r-1, err)
		}
		out.DESJobs += uint64(len(active) * (r - from))
		out.CacheHits += uint64(len(active) * from)
		for _, s := range active {
			s.Score = sweep.Summarize(s.values)
			s.Evaluated.Replications = r
			s.sortKey = dir * s.Score.Mean
		}
		if goal == MinCostAtSLO {
			active, retired, cheapestFeasible = decideSLO(p.Objective.SLOMeanResponse, active, retired, cheapestFeasible, r == rMax)
		} else {
			active, retired = decideRanked(active, retired, r == rMax)
		}
		if r == rMax {
			break
		}
	}
	if goal == MinCostAtSLO && cheapestFeasible == nil {
		return nil, fmt.Errorf("opt: no candidate meets mean-response SLO %g within %d replications",
			p.Objective.SLOMeanResponse, rMax)
	}
	return retired, nil
}

// decideRanked applies the CI elimination rule for the ranking goals:
// the leader is the best point estimate, and a candidate is eliminated
// only when its whole interval is worse than the leader's — overlapping
// intervals keep racing. At the replication cap the leader wins and the
// still-overlapping rest are ties.
func decideRanked(active, retired []*state, atCap bool) ([]*state, []*state) {
	leader := active[0]
	for _, s := range active[1:] {
		if s.sortKey < leader.sortKey || (s.sortKey == leader.sortKey && s.enumIdx < leader.enumIdx) {
			leader = s
		}
	}
	// In minimize space the leader's upper bound is dir-adjusted Hi when
	// minimizing, -Lo when maximizing: equivalently |CI95| around the key.
	var next []*state
	for _, s := range active {
		if s == leader {
			next = append(next, s)
			continue
		}
		sepFrom := s.sortKey - s.Score.CI95               // candidate's best plausible key
		leaderWorst := leader.sortKey + leader.Score.CI95 // leader's worst plausible key
		if !s.Score.CIUndefined && !leader.Score.CIUndefined && sepFrom > leaderWorst {
			s.Status = StatusEliminated
			retired = append(retired, s)
			continue
		}
		if atCap {
			s.Status = StatusTie
			retired = append(retired, s)
			continue
		}
		next = append(next, s)
	}
	if atCap || len(next) == 1 {
		leader.Status = StatusWinner
		retired = append(retired, leader)
		next = nil
	}
	return next, retired
}

// decideSLO applies the feasibility rule for MinCostAtSLO: a candidate
// retires feasible when its whole mean-response interval meets the SLO,
// infeasible when the whole interval exceeds it, and keeps racing while
// the interval straddles the line. Once any candidate is decided
// feasible, everything at least as expensive retires immediately — its
// feasibility can no longer matter. At the cap the cheapest feasible
// wins; cheaper-but-undecided candidates are reported as ties.
func decideSLO(slo float64, active, retired []*state, cheapest *state, atCap bool) ([]*state, []*state, *state) {
	var undecided []*state
	for _, s := range active {
		switch {
		case s.Score.Hi <= slo && !s.Score.CIUndefined:
			s.Status = StatusFeasible
			if cheapest == nil || s.Cost < cheapest.Cost ||
				(s.Cost == cheapest.Cost && s.enumIdx < cheapest.enumIdx) {
				cheapest = s
			}
			retired = append(retired, s)
		case s.Score.Lo > slo && !s.Score.CIUndefined:
			s.Status = StatusInfeasible
			retired = append(retired, s)
		default:
			undecided = append(undecided, s)
		}
	}
	var next []*state
	for _, s := range undecided {
		switch {
		case cheapest != nil && s.Cost >= cheapest.Cost:
			// Even if feasible it cannot beat the decided winner on cost.
			s.Status = StatusEliminated
			retired = append(retired, s)
		case atCap:
			// Cheaper than every decided-feasible candidate but still
			// straddling the SLO: an honest tie, not a silent drop.
			s.Status = StatusTie
			retired = append(retired, s)
		default:
			next = append(next, s)
		}
	}
	if cheapest != nil && (atCap || len(next) == 0) {
		cheapest.Status = StatusWinner
	}
	return next, retired, cheapest
}

// objective reads the objective metric, native direction, from one
// raced replication of a candidate Solve configured for goal.
func objective(goal Goal, r *busnet.Results) float64 {
	switch goal {
	case MaxThroughput:
		return r.Throughput
	case MinP99Response:
		// Solve turns quantile collection on for this goal.
		return r.ResponseQuantiles.P99
	default: // MinMeanResponse, MinCostAtSLO
		return r.MeanResponse
	}
}

// rank orders the final table best-first: winner, ties, feasible (by
// cost), eliminated/infeasible (by score), pruned (by model estimate),
// over-budget (by cost); enumeration order breaks every tie so the
// table is deterministic.
func rank(goal Goal, all []*state) []Evaluated {
	order := map[Status]int{
		StatusWinner: 0, StatusTie: 1, StatusFeasible: 2,
		StatusEliminated: 3, StatusInfeasible: 4,
		StatusPruned: 5, StatusOverBudget: 6,
	}
	key := func(s *state) float64 {
		switch s.Status {
		case StatusFeasible, StatusOverBudget:
			return s.Cost
		case StatusPruned:
			if s.ModelEstimate != nil {
				return direction(goal) * *s.ModelEstimate
			}
			return math.Inf(1)
		default:
			return s.sortKey
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if order[all[i].Status] != order[all[j].Status] {
			return order[all[i].Status] < order[all[j].Status]
		}
		ki, kj := key(all[i]), key(all[j])
		if ki != kj {
			return ki < kj
		}
		return all[i].enumIdx < all[j].enumIdx
	})
	out := make([]Evaluated, len(all))
	for i, s := range all {
		out[i] = s.Evaluated
	}
	return out
}
