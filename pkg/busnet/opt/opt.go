// Package opt answers the design question the paper keeps circling:
// given a total buffer budget, is it better to deepen the queues or add
// another bus — and under which policy? It searches a space of
// configurations (per-station buffer depths, bus count m, arbiter
// weights, buffered vs unbuffered) under a cost budget, scoring
// candidates against an objective (maximize throughput, minimize mean
// or p99 response, or minimize cost subject to a response-time SLO).
//
// The search is a successive-halving race built on the sweep pipeline:
// the closed-form models (analytic, falling back to fluid) prune the
// obviously-bad half for free, then survivors race under the simulator
// with common random numbers — every candidate sees the same seeds, so
// configuration differences are not masked by sampling noise — and a
// candidate is eliminated only when confidence intervals actually
// separate it from the leader. When intervals still overlap, the race
// escalates replications instead of guessing; candidates the data
// cannot distinguish at the replication cap are reported as ties, not
// silently ranked. The race keeps each candidate's objective value per
// replication and each escalation simulates only the new streams
// (sweep.Replicate), so racing 4 then 8 then 16 replications costs 16
// simulations per surviving candidate, not 28 — and Outcome reports
// exactly how many simulations the race spent against what exhaustive
// enumeration at full replications would have.
package opt

import (
	"fmt"
	"math"
	"strconv"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// Goal names an optimization objective.
type Goal string

const (
	// MaxThroughput maximizes completed requests per unit time.
	MaxThroughput Goal = "max-throughput"
	// MinMeanResponse minimizes the mean issue-to-completion time.
	MinMeanResponse Goal = "min-mean-response"
	// MinP99Response minimizes the 99th-percentile response time —
	// the tail a latency SLO actually constrains. Racing this goal
	// reduces per-replication p99s, so candidate configs run with
	// Quantiles enabled automatically.
	MinP99Response Goal = "min-p99-response"
	// MinCostAtSLO minimizes hardware cost among candidates whose mean
	// response meets Objective.SLOMeanResponse. Feasibility is decided
	// by confidence interval: a candidate is feasible when its whole
	// interval sits at or below the SLO, infeasible when its whole
	// interval sits above, and raced to more replications while the
	// interval straddles the line.
	MinCostAtSLO Goal = "min-cost-at-slo"
)

// ParseGoal maps a goal name to its canonical value; the empty string
// parses as MaxThroughput.
func ParseGoal(s string) (Goal, error) {
	switch Goal(s) {
	case "", MaxThroughput:
		return MaxThroughput, nil
	case MinMeanResponse:
		return MinMeanResponse, nil
	case MinP99Response:
		return MinP99Response, nil
	case MinCostAtSLO:
		return MinCostAtSLO, nil
	default:
		return "", fmt.Errorf("opt: unknown goal %q", s)
	}
}

// Space is the candidate-configuration space: the cross product of
// modes × bus counts × buffer depths × arbiter weight vectors over one
// base config. Unbuffered candidates ignore the depth axis (there is no
// queue to size), so the space is not a plain grid — Enumerate produces
// one unbuffered candidate per (buses, weights) pair, not one per
// depth.
type Space struct {
	// Base supplies everything the axes do not vary: station count,
	// rates, traffic and service shapes, seed, horizon.
	Base busnet.Config `json:"base"`
	// Modes lists the queueing disciplines to consider; empty means
	// both buffered and unbuffered.
	Modes []string `json:"modes,omitempty"`
	// Buses lists the bus counts m to consider; empty means the base's.
	Buses []int `json:"buses,omitempty"`
	// BufferDepths lists per-station queue depths for buffered
	// candidates (busnet.Infinite allowed); empty means the base's.
	BufferDepths []int `json:"buffer_depths,omitempty"`
	// Weights lists arbiter weight vectors in Config.Weights form
	// ("4,2,1,1"); non-empty entries switch the candidate to the
	// weighted-round-robin arbiter. Empty means the base's arbiter.
	Weights []string `json:"weights,omitempty"`
}

// Budget is the hardware cost model and spending cap. Cost is linear:
// BufferCost per buffer slot (depth × stations, buffered candidates
// only) plus BusCost per bus. Candidates costing more than Total are
// excluded from the race and reported as over-budget; Total 0 means
// unconstrained. An infinite buffer depth has infinite cost whenever
// BufferCost > 0, so it survives a budget only when buffers are free.
type Budget struct {
	Total      float64 `json:"total,omitempty"`
	BufferCost float64 `json:"buffer_cost,omitempty"`
	BusCost    float64 `json:"bus_cost,omitempty"`
}

// Cost prices one candidate config under the budget's cost model.
func (b Budget) Cost(cfg busnet.Config) float64 {
	cost := b.BusCost * float64(cfg.Buses)
	if cfg.Mode == busnet.ModeBuffered && b.BufferCost > 0 {
		if cfg.BufferCap == busnet.Infinite {
			return math.Inf(1)
		}
		cost += b.BufferCost * float64(cfg.BufferCap) * float64(cfg.Processors)
	}
	return cost
}

// Objective pairs a goal with its parameters.
type Objective struct {
	Goal Goal `json:"goal,omitempty"`
	// SLOMeanResponse is the mean-response ceiling for MinCostAtSLO;
	// ignored by the other goals.
	SLOMeanResponse float64 `json:"slo_mean_response,omitempty"`
}

// Race tunes the successive-halving schedule. The zero value is usable:
// 4 initial replications doubling to 32, model prune to the better half.
type Race struct {
	// InitialReplications seeds the first round; ≤ 0 means 4.
	InitialReplications int `json:"initial_replications,omitempty"`
	// MaxReplications caps escalation; ≤ 0 means 32. Candidates still
	// statistically indistinguishable at the cap are reported as ties.
	MaxReplications int `json:"max_replications,omitempty"`
	// PruneKeep is how many candidates survive the model-prune phase;
	// ≤ 0 keeps the better half (rounding up). Candidates outside both
	// models' domains always survive to the race — a model that cannot
	// score a configuration must not veto it.
	PruneKeep int `json:"prune_keep,omitempty"`
	// Workers bounds the sweep pool during racing; ≤ 0 means GOMAXPROCS.
	Workers int `json:"-"`
	// Progress, when non-nil, receives live job/point counts from each
	// racing round's sweep in turn (every round resets it); a round
	// counts only the replications it simulates, not those it reuses.
	// Like Workers, an execution detail: attaching it never changes the
	// outcome.
	Progress *sweep.Progress `json:"-"`
}

// Problem is a complete optimization instance.
type Problem struct {
	Space     Space     `json:"space"`
	Objective Objective `json:"objective"`
	Budget    Budget    `json:"budget"`
	Race      Race      `json:"race,omitzero"`
}

// Candidate is one enumerated configuration with its price tag.
type Candidate struct {
	Config busnet.Config `json:"config"`
	// Cost under the problem's budget model; may be +Inf (an infinite
	// buffer with a nonzero per-slot cost), which JSON cannot encode —
	// CostText carries the serializable rendering.
	Cost     float64 `json:"-"`
	CostText string  `json:"cost,omitempty"`
	// OverBudget marks candidates excluded by Budget.Total before any
	// evaluation.
	OverBudget bool `json:"over_budget,omitempty"`
}

// Label renders the candidate's varied axes compactly, e.g.
// "buffered d=4 m=2" or "unbuffered m=1 w=4,2,1,1".
func (c Candidate) Label() string {
	s := c.Config.Mode
	if c.Config.Mode == busnet.ModeBuffered {
		if c.Config.BufferCap == busnet.Infinite {
			s += " d=inf"
		} else {
			s += fmt.Sprintf(" d=%d", c.Config.BufferCap)
		}
	}
	s += fmt.Sprintf(" m=%d", c.Config.Buses)
	if c.Config.Weights != "" {
		s += " w=" + c.Config.Weights
	}
	return s
}

// FormatCost renders a candidate cost for tables and JSON: the
// shortest "%g" form for finite values, "inf" for the infinite-buffer
// case.
func FormatCost(c float64) string {
	if math.IsInf(c, 1) {
		return "inf"
	}
	// strconv.FormatFloat(c, 'g', -1, 64) in a buffer on the stack: the
	// string is the one allocation.
	var buf [32]byte
	return string(strconv.AppendFloat(buf[:0], c, 'g', -1, 64))
}

// Enumerate expands the space into its full candidate list — every
// within-budget configuration the race will consider plus the
// over-budget ones (flagged, never evaluated), in deterministic
// mode-major order. The list is exactly what an exhaustive full-grid
// sweep would run, which is what the optimizer's job-count savings are
// measured against.
func (p Problem) Enumerate() ([]Candidate, error) {
	modes := p.Space.Modes
	if len(modes) == 0 {
		modes = []string{busnet.ModeUnbuffered, busnet.ModeBuffered}
	}
	base := p.Space.Base.Normalized()
	buses := p.Space.Buses
	if len(buses) == 0 {
		buses = []int{base.Buses}
	}
	for i, m := range buses {
		// Config reads 0 buses as the default one bus, so a 0 entry would
		// be priced and labeled as a bus-free candidate the simulator then
		// runs with one bus.
		if m < 1 {
			return nil, fmt.Errorf("opt: space.buses[%d] = %d, need ≥ 1", i, m)
		}
	}
	depths := p.Space.BufferDepths
	if len(depths) == 0 {
		depths = []int{base.BufferCap}
	}
	weights := p.Space.Weights
	if len(weights) == 0 {
		weights = []string{base.Weights}
	}
	// One candidate per (mode, m, depth, weights), or per (mode, m,
	// weights) when unbuffered; a mode that does not parse fails below.
	n := 0
	for _, mode := range modes {
		if mode, _ := busnet.ParseMode(mode); mode == busnet.ModeBuffered {
			n += len(buses) * len(depths) * len(weights)
		} else {
			n += len(buses) * len(weights)
		}
	}
	out := make([]Candidate, 0, n)
	for _, mode := range modes {
		mode, err := busnet.ParseMode(mode)
		if err != nil {
			return nil, fmt.Errorf("opt: %w", err)
		}
		modeDepths := depths
		if mode == busnet.ModeUnbuffered {
			// No queue to size: one candidate per (m, w), not per depth.
			modeDepths = depths[:1]
		}
		for _, m := range buses {
			for _, d := range modeDepths {
				for _, w := range weights {
					cfg := base
					cfg.Mode = mode
					cfg.Buses = m
					cfg.Weights = w
					if w != "" {
						cfg.Arbiter = busnet.WeightedRoundRobin.String()
					}
					if mode == busnet.ModeBuffered {
						cfg.BufferCap = d
					}
					if err := cfg.Validate(); err != nil {
						return nil, fmt.Errorf("opt: candidate %s: %w", Candidate{Config: cfg}.Label(), err)
					}
					c := Candidate{Config: cfg, Cost: p.Budget.Cost(cfg)}
					c.CostText = FormatCost(c.Cost)
					c.OverBudget = p.Budget.Total > 0 && c.Cost > p.Budget.Total
					out = append(out, c)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("opt: space enumerated to no candidates")
	}
	return out, nil
}
