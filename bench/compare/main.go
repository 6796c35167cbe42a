// Command compare judges a change against its parent from two benchmark
// records, one row per workload:
//
//	cd bench && go run ./compare PARENT.json CHANGE.json
//
// Each record needs at least ten runs of every workload; run i of the
// parent and run i of the change form pair i, so take the runs
// alternately (parent, change, parent, …), appending to each record
// with --runs 1 --out. For every end-to-end metric of every workload the
// verdict is one of:
//
//   - gain: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     parent's interquartile range;
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: the run-to-run spread (interquartile range over
//     median, either side) is wider than the bound, so "unchanged" cannot
//     be claimed — unless every change run reads better than every
//     parent run;
//   - unchanged: none of the above.
//
// A rise in the share of failed operations is flagged, and runs on equal
// seeds report whether the two builds' outputs are identical. The exit
// status is 1 when any metric regressed or the failure share rose.
package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"github.com/busnet/busnet/bench/internal/record"
)

// minPairs is the fewest alternated pairs a verdict rests on.
const minPairs = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare PARENT.json CHANGE.json")
		return 2
	}
	var recs [2]*record.Record
	for i, path := range args {
		r, err := record.Load(path)
		if err == nil && r == nil {
			err = fmt.Errorf("%s: no such record", path)
		}
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
		recs[i] = r
	}
	rows, err := compare(recs[0], recs[1])
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	bad := false
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
		bad = bad || r.failRose
		for _, c := range r.cells {
			bad = bad || c.verdict == regression
		}
	}
	if bad {
		return 1
	}
	return 0
}

type verdict string

const (
	gain       verdict = "gain"
	regression verdict = "regression"
	unresolved verdict = "unresolved"
	unchanged  verdict = "unchanged"
)

// cell is one (workload, metric) verdict with its evidence: the change
// of the median as a share of the parent's, and how many pairs the
// change won and lost.
type cell struct {
	metric       string
	verdict      verdict
	delta        float64
	wins, losses int
	pairs        int
}

// row is one workload's verdicts, its failure shares and whether the
// outputs of runs on equal seeds match.
type row struct {
	workload     string
	cells        []cell
	parentFailed string
	changeFailed string
	failRose     bool
	outputs      string
}

func (r row) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", r.workload)
	for _, c := range r.cells {
		fmt.Fprintf(&b, "  %s %s %+.1f%% (won %d, lost %d of %d)", c.metric, c.verdict, 100*c.delta, c.wins, c.losses, c.pairs)
	}
	fmt.Fprintf(&b, "  failed %s -> %s", r.parentFailed, r.changeFailed)
	if r.failRose {
		b.WriteString(" ROSE")
	}
	fmt.Fprintf(&b, "  outputs %s", r.outputs)
	return b.String()
}

// compare judges every end-to-end metric of every workload of the
// parent record against the change record.
func compare(parent, change *record.Record) ([]row, error) {
	var rows []row
	for _, pw := range parent.Workloads {
		cw := change.Find(pw.Name)
		if cw == nil {
			return nil, fmt.Errorf("change record has no workload %s", pw.Name)
		}
		r := row{
			workload:     pw.Name,
			parentFailed: fmt.Sprintf("%d/%d", pw.Failed, pw.Attempted),
			changeFailed: fmt.Sprintf("%d/%d", cw.Failed, cw.Attempted),
			failRose:     share(cw.Failed, cw.Attempted) > share(pw.Failed, pw.Attempted),
			outputs:      outputs(pw.Runs, cw.Runs),
		}
		for _, pm := range pw.Metrics {
			if pm.Bound == 0 {
				continue // per-layer metrics carry no bound to judge against
			}
			cm := cw.Find(pm.Name)
			if cm == nil {
				return nil, fmt.Errorf("%s: change record has no metric %s", pw.Name, pm.Name)
			}
			n := min(len(pm.Samples), len(cm.Samples))
			if n < minPairs {
				return nil, fmt.Errorf("%s %s: %d pairs, need at least %d", pw.Name, pm.Name, n, minPairs)
			}
			c := judge(pm.Samples[:n], cm.Samples[:n], pm.Bound, pm.Better != "higher")
			c.metric = pm.Name
			r.cells = append(r.cells, c)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// judge applies the verdict rules to paired samples.
func judge(ps, cs []float64, bound float64, lowerBetter bool) cell {
	sign := 1.0 // improvement = sign·(parent − change)
	if !lowerBetter {
		sign = -1
	}
	c := cell{pairs: len(ps)}
	for i := range ps {
		switch d := sign * (ps[i] - cs[i]); {
		case d > 0:
			c.wins++
		case d < 0:
			c.losses++
		}
	}
	sp, sc := record.Summarize(ps), record.Summarize(cs)
	c.delta = sc.Median/sp.Median - 1
	worse := sign * (sc.Median - sp.Median) // > 0: the change reads worse
	spread := max(sp.IQR/math.Abs(sp.Median), sc.IQR/math.Abs(sc.Median))
	// In badness space (sign·x) higher always reads worse: every change
	// run reads better than every parent run when the change's worst is
	// below the parent's best, and worse in the mirror case.
	bp, bc := scale(ps, sign), scale(cs, sign)
	allBetter := slices.Max(bc) < slices.Min(bp)
	allWorse := slices.Min(bc) > slices.Max(bp)
	tooWorse := worse > bound*math.Abs(sp.Median)
	switch {
	case 10*c.wins >= 9*c.pairs && -worse > sp.IQR:
		c.verdict = gain
	case allWorse && tooWorse:
		c.verdict = regression
	case spread > bound && !allBetter:
		c.verdict = unresolved
	case tooWorse:
		c.verdict = regression
	default:
		c.verdict = unchanged
	}
	return c
}

// scale returns xs multiplied by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = k * x
	}
	return out
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// outputs compares the result digests of runs on seeds both records
// share: "identical", "DIFFER", or "no common seed".
func outputs(p, c []record.Run) string {
	want := map[int64]string{}
	for _, r := range p {
		want[r.Seed] = r.Digest
	}
	common := false
	for _, r := range c {
		if d, ok := want[r.Seed]; ok {
			common = true
			if d != r.Digest {
				return "DIFFER"
			}
		}
	}
	if !common {
		return "no common seed"
	}
	return "identical"
}
