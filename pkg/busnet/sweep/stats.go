package sweep

import "math"

// Stat summarizes one metric across the replications of a grid point:
// sample mean, sample standard deviation, and a 95% confidence interval
// on the mean (half-width CI95, bounds Lo/Hi) using the Student-t
// quantile for the replication count.
//
// With a single replication the Student-t interval has zero degrees of
// freedom and does not exist; rather than emit a NaN/∞ half-width (which
// would poison JSON encoding and CSV parsing downstream), the interval
// collapses to the point estimate with CI95 = 0 and CIUndefined set, so
// consumers can tell "no spread measured" apart from a genuine
// zero-width interval. CSV output renders the half-width of an undefined
// interval as an empty cell.
type Stat struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	CI95   float64 `json:"ci95"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	// CIUndefined marks a point estimate whose confidence interval does
	// not exist (fewer than two replications).
	CIUndefined bool `json:"ci_undefined,omitempty"`
}

// Summarize reduces independent per-replication values of one metric
// into a Stat — exported for consumers that keep their own
// per-replication values (the optimizer's race, which reads one value
// per replication from Replicate). Semantics match every built-in
// column: Student-t 95% interval, single values collapse to
// CIUndefined.
func Summarize(xs []float64) Stat { return summarize(xs) }

// summarize reduces the replication values of one metric. Two-pass mean
// and variance: replication counts are small (tens), so numerical
// stability tricks beyond the two-pass form are unnecessary.
func summarize(xs []float64) Stat {
	n := len(xs)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		// t_{0.975, 0} does not exist: report the bare point estimate and
		// say so explicitly instead of manufacturing a NaN half-width.
		return Stat{Mean: mean, Lo: mean, Hi: mean, CIUndefined: true}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	hw := tCritical95(n-1) * sd / math.Sqrt(float64(n))
	return Stat{Mean: mean, StdDev: sd, CI95: hw, Lo: mean - hw, Hi: mean + hw}
}

// tTable95 holds two-sided 95% Student-t critical values t_{0.975,df}
// for df = 1..30.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom: exact for df ≤ 30, then the conventional table
// steps at 40, 60, and 120, rounding df down so intervals err on the
// conservative (wider) side. Beyond 120 it stays at t(120) = 1.980
// rather than dropping to the normal limit 1.960, which the t quantile
// only approaches from above — every interval stays conservative.
func tCritical95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= 30:
		return tTable95[df-1]
	case df < 40:
		return tTable95[29]
	case df < 60:
		return 2.021
	case df < 120:
		return 2.000
	default:
		return 1.980
	}
}
