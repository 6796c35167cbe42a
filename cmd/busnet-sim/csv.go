package main

import (
	"encoding/csv"
	"io"
	"strconv"

	"github.com/busnet/busnet/pkg/busnet"
	"github.com/busnet/busnet/pkg/busnet/sweep"
)

// csvHeader names one row per grid point (flat curves) or per
// (point, hop) (topology curves), wide format: configuration, then
// mean/ci95 per metric, then the analytic prediction (blank when no
// steady state exists), then the topology columns — node name, inbound
// bridge depth, blocked fraction, and the point's end-to-end response —
// blank on flat rows, then the engine/model diagnostics counters summed
// across the point's replications (blank on model-backend rows, which
// run no simulation; repeated on every hop row of a topology point,
// like the end-to-end response).
var csvHeader = []string{
	"scenario", "curve", "backend", "point",
	"processors", "buses", "think_rate", "service_rate", "service", "service_detail",
	"mode", "buffer_cap", "arbiter",
	"weights", "traffic", "traffic_detail", "mean_think_rate",
	"seed", "horizon", "warmup", "replications",
	"util_mean", "util_ci95",
	"throughput_mean", "throughput_ci95",
	"wait_mean", "wait_ci95",
	"qlen_mean", "qlen_ci95",
	"response_mean", "response_ci95",
	"wait_p50", "wait_p95", "wait_p99",
	"response_p50", "response_p95", "response_p99",
	"analytic_util", "analytic_throughput", "analytic_wait", "analytic_qlen", "analytic_response",
	"fluid_util", "fluid_throughput", "fluid_wait", "fluid_qlen", "fluid_response", "fluid_blocked",
	"node", "bridge_depth", "blocked_mean", "blocked_ci95",
	"e2e_response_mean", "e2e_response_ci95",
	"events_scheduled", "events_fired", "events_cancelled",
	"pool_hits", "pool_misses",
	"wheel_overflow", "wheel_rebases", "wheel_resizes",
	"stalls", "arb_scan_slots", "bridge_crossings", "bridge_blocks",
}

// csvRow is what one CSV row renders: a node's configuration, the run
// interval and replication count, the node's reduced statistics, the
// pooled quantiles, the analytic and fluid overlays, the topology
// columns and the diagnostics. A flat point is its config's one node.
// Nil quantiles, overlays and diagnostics blank their cells, and a nil
// endToEnd blanks the topology columns, as on flat rows.
type csvRow struct {
	node            busnet.Node
	seed            int64
	horizon, warmup float64
	replications    int
	stat            sweep.HopStat
	waitQ, respQ    *busnet.Quantiles
	analytic        *busnet.Prediction
	fluid           *busnet.FluidPrediction
	// The topology columns beyond stat's node name and blocked fraction:
	// the depth of the node's one inbound bridge (blank on source nodes
	// and on merges) and the point's end-to-end response, repeated on
	// each of its rows as provenance.
	inbound     string
	endToEnd    *sweep.Stat
	diagnostics *busnet.Diagnostics
}

// cells renders r as the row of point p of curve in scenario. Floats
// use strconv's shortest round-trip formatting, so CSV output is as
// deterministic as the JSON report.
func (r *csvRow) cells(scenario string, curve CurveResult, p int) []string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	i := strconv.Itoa
	stat := func(s sweep.Stat) []string {
		if s.CIUndefined {
			return []string{f(s.Mean), ""}
		}
		return []string{f(s.Mean), f(s.CI95)}
	}
	n, h := &r.node, &r.stat
	meanRate := ""
	if n.Processors > 0 {
		meanRate = f(n.Traffic.MeanRate(n.ThinkRate))
	}
	row := []string{
		scenario, curve.Name, string(curve.Backend), i(p),
		i(n.Processors), i(n.Buses), f(n.ThinkRate), f(n.ServiceRate),
		string(n.Service.Kind), n.Service.Detail(),
		n.Mode, i(n.BufferCap), n.Arbiter,
		n.Weights, string(n.Traffic.Kind), n.Traffic.Detail(),
		meanRate,
		strconv.FormatInt(r.seed, 10), f(r.horizon), f(r.warmup),
		i(r.replications),
	}
	row = append(row, stat(h.Utilization)...)
	row = append(row, stat(h.Throughput)...)
	row = append(row, stat(h.MeanWait)...)
	row = append(row, stat(h.MeanQueueLen)...)
	row = append(row, stat(h.MeanResponse)...)
	for _, q := range []*busnet.Quantiles{r.waitQ, r.respQ} {
		if q != nil {
			row = append(row, f(q.P50), f(q.P95), f(q.P99))
		} else {
			row = append(row, "", "", "")
		}
	}
	if a := r.analytic; a != nil {
		row = append(row, f(a.Utilization), f(a.Throughput), f(a.MeanWait),
			f(a.MeanQueueLen), f(a.MeanResponse))
	} else {
		row = append(row, "", "", "", "", "")
	}
	if fl := r.fluid; fl != nil {
		row = append(row, f(fl.Utilization), f(fl.Throughput), f(fl.MeanWait),
			f(fl.MeanQueueLen), f(fl.MeanResponse), f(fl.Blocked))
	} else {
		row = append(row, "", "", "", "", "", "")
	}
	if r.endToEnd != nil {
		row = append(row, h.Node, r.inbound)
		row = append(row, stat(h.Blocked)...)
		row = append(row, stat(*r.endToEnd)...)
	} else {
		row = append(row, "", "", "", "", "", "")
	}
	if d := r.diagnostics; d != nil {
		u := func(x uint64) string { return strconv.FormatUint(x, 10) }
		return append(row,
			u(d.Engine.Scheduled), u(d.Engine.Fired), u(d.Engine.Cancelled),
			u(d.Engine.PoolHits), u(d.Engine.PoolMisses),
			u(d.Engine.WheelOverflow), u(d.Engine.WheelRebases), u(d.Engine.WheelResizes),
			u(d.Stalls), u(d.ArbScanSlots), u(d.BridgeCrossings), u(d.BridgeBlocks))
	}
	return append(row, make([]string, 12)...)
}

// writeCSV flattens a report to CSV, one csvRow per flat point and per
// (topology point, hop). "Not measured" is always an empty cell, never
// a meaningless 0: an undefined confidence interval (single
// replication, or a model backend's point estimate) blanks its ci95
// cell, disabled quantile collection blanks the six percentile cells,
// as hop rows do, having no pooled quantiles, and a point outside the
// analytic/fluid model's domain blanks that overlay's cells; the fluid
// model has no topology form.
func writeCSV(w io.Writer, report Report) error {
	if report.Optimize != nil {
		// Optimizer scenarios have a ranked-candidate shape, not a
		// per-point one; they get their own header and row schema.
		return writeOptimizeCSV(w, report)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, curve := range report.Curves {
		write := func(p int, r *csvRow) error { return cw.Write(r.cells(report.Scenario, curve, p)) }
		if res := curve.Topology; res != nil {
			for p, pt := range res.Points {
				top := pt.Topology
				for k, h := range pt.Hops {
					r := csvRow{
						node: top.Nodes[k], seed: top.Seed, horizon: top.Horizon, warmup: top.Warmup,
						replications: res.Replications, stat: h, endToEnd: &pt.EndToEnd,
						diagnostics: pt.Diagnostics,
					}
					for _, l := range top.Links {
						if l.To != r.node.Name {
							continue
						}
						if r.inbound != "" {
							r.inbound = "" // merge point: no single inbound depth
							break
						}
						r.inbound = strconv.Itoa(l.Buffer)
					}
					if a := pt.Analytic; a != nil {
						r.analytic = &a.Nodes[k].Prediction
					}
					if err := write(p, &r); err != nil {
						return err
					}
				}
			}
		}
		for p, pt := range curve.Result.Points {
			c := pt.Config
			err := write(p, &csvRow{
				node: c.Topology().Nodes[0], seed: c.Seed, horizon: c.Horizon, warmup: c.Warmup,
				replications: curve.Result.Replications,
				stat: sweep.HopStat{Utilization: pt.Utilization, Throughput: pt.Throughput,
					MeanWait: pt.MeanWait, MeanQueueLen: pt.MeanQueueLen, MeanResponse: pt.MeanResponse},
				waitQ: pt.WaitQuantiles, respQ: pt.ResponseQuantiles,
				analytic: pt.Analytic, fluid: pt.Fluid, diagnostics: pt.Diagnostics,
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
