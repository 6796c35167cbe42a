package main

import (
	"encoding/csv"
	"io"
	"strconv"

	"github.com/busnet/busnet/pkg/busnet/opt"
)

// optimizeCSVHeader names one row per enumerated candidate of an
// optimizer scenario, ranked best-first: the candidate's varied axes
// and cost, how it left the race, its objective score with the 95%
// interval and the replications behind it, the closed-form prune
// estimate where one existed, and the race's job ledger (identical on
// every row, as provenance — des_jobs is what the race actually
// simulated, cache_hits the replications it reused from earlier rounds,
// exhaustive_jobs what brute force at the replication cap would have).
var optimizeCSVHeader = []string{
	"scenario", "goal", "rank", "status",
	"mode", "buffer_cap", "buses", "weights", "cost", "over_budget",
	"score_mean", "score_ci95", "score_lo", "score_hi", "replications",
	"model_estimate", "slo_mean_response", "tie",
	"des_jobs", "cache_hits", "exhaustive_jobs",
}

// writeOptimizeCSV flattens an optimizer outcome to CSV, one row per
// ranked candidate. The same blank-cell conventions as the curve CSV:
// an undefined or never-measured interval blanks its ci95/lo/hi cells,
// a candidate that never reached the simulator blanks its score and
// replications, and goals without an SLO blank that column.
func writeOptimizeCSV(w io.Writer, report Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(optimizeCSVHeader); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	i := strconv.Itoa
	u := func(x uint64) string { return strconv.FormatUint(x, 10) }
	out := report.Optimize
	score := func(e opt.Evaluated) []string {
		if e.Replications == 0 {
			return []string{"", "", "", "", ""}
		}
		s := e.Score
		cells := []string{f(s.Mean)}
		if s.CIUndefined {
			cells = append(cells, "", "", "")
		} else {
			cells = append(cells, f(s.CI95), f(s.Lo), f(s.Hi))
		}
		return append(cells, i(e.Replications))
	}
	slo := ""
	if out.Goal == opt.MinCostAtSLO {
		slo = f(out.SLOMeanResponse)
	}
	tie := strconv.FormatBool(out.Tie)
	for rank, e := range out.Ranked {
		row := []string{
			report.Scenario, string(out.Goal), i(rank + 1), string(e.Status),
			e.Config.Mode, i(e.Config.BufferCap), i(e.Config.Buses), e.Config.Weights,
			e.CostText, strconv.FormatBool(e.OverBudget),
		}
		row = append(row, score(e)...)
		if e.ModelEstimate != nil {
			row = append(row, f(*e.ModelEstimate))
		} else {
			row = append(row, "")
		}
		row = append(row, slo, tie, u(out.DESJobs), u(out.CacheHits), u(out.ExhaustiveJobs))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
