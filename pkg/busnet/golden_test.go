package busnet

import (
	"math"
	"testing"
)

// The multi-bus fabric's backward-compatibility contract: with one bus
// (the default) every simulated quantity is bit-identical to the
// single-bus engine that predated the fabric. The expected values below
// were captured by running the pre-fabric code at these exact configs —
// they are not regression snapshots of the current code, so any drift
// here means the m = 1 path no longer reproduces the paper's original
// engine and is a bug, never a baseline to refresh.

type goldenRun struct {
	name         string
	mutate       func(*Config)
	utilization  float64
	throughput   float64
	meanQueueLen float64
	maxQueueLen  float64
	meanWait     float64
	waitStdDev   float64
	maxWait      float64
	meanResponse float64
	issued       uint64
	completions  uint64
	events       uint64
	grants       []uint64
}

var goldenRuns = []goldenRun{
	{
		name:         "unbuffered-default",
		mutate:       func(c *Config) {},
		utilization:  0.650269510270132,
		throughput:   0.664,
		meanQueueLen: 0.681819726479117,
		maxQueueLen:  7,
		meanWait:     1.0268369374685526,
		waitStdDev:   1.6148494407796996,
		maxWait:      11.65105322632462,
		meanResponse: 2.006158489080193,
		issued:       2988,
		completions:  2988,
		events:       5976,
		grants:       []uint64{362, 369, 353, 373, 375, 383, 360, 413},
	},
	{
		name: "buffered-finite",
		mutate: func(c *Config) {
			c.Mode = ModeBuffered
			c.BufferCap = 4
			c.Processors = 16
			c.ThinkRate = 0.05
		},
		utilization:  0.8086534834742142,
		throughput:   0.8113333333333334,
		meanQueueLen: 3.59671059941417,
		maxQueueLen:  26,
		meanWait:     4.450607575752851,
		waitStdDev:   6.187373608762914,
		maxWait:      49.94491580073418,
		meanResponse: 5.4473413963808905,
		issued:       3650,
		completions:  3651,
		events:       7301,
		grants: []uint64{243, 239, 228, 249, 244, 218, 212, 225,
			228, 217, 198, 220, 216, 256, 233, 225},
	},
	{
		name: "buffered-infinite",
		mutate: func(c *Config) {
			c.Mode = ModeBuffered
			c.BufferCap = Infinite
			c.Processors = 16
			c.ThinkRate = 0.05
		},
		utilization:  0.7966502732293911,
		throughput:   0.8057777777777778,
		meanQueueLen: 3.360066391558684,
		maxQueueLen:  28,
		meanWait:     4.171182362978554,
		waitStdDev:   5.84982550533618,
		maxWait:      50.34048238632113,
		meanResponse: 5.158953035162815,
		issued:       3624,
		completions:  3626,
		events:       7250,
		grants: []uint64{225, 232, 209, 219, 253, 221, 240, 225,
			210, 214, 202, 266, 220, 250, 207, 232},
	},
	{
		name: "fixed-priority-saturated",
		mutate: func(c *Config) {
			c.Arbiter = FixedPriority.String()
			c.ThinkRate = 0.5
		},
		utilization:  0.9990947026843625,
		throughput:   1.011111111111111,
		meanQueueLen: 4.977667068430038,
		maxQueueLen:  7,
		meanWait:     4.926307390802933,
		waitStdDev:   18.254799254128887,
		maxWait:      595.5420500147484,
		meanResponse: 5.914572074461836,
		issued:       4550,
		completions:  4550,
		events:       9100,
		grants:       []uint64{1142, 1059, 847, 678, 441, 235, 105, 43},
	},
	{
		name: "weighted-round-robin",
		mutate: func(c *Config) {
			c.Mode = ModeBuffered
			c.BufferCap = 8
			c.Arbiter = WeightedRoundRobin.String()
			c.Weights = "6,2,1,1,1,1,1,1"
			c.ThinkRate = 0.5
		},
		utilization:  1,
		throughput:   0.9953333333333333,
		meanQueueLen: 61.609181367797206,
		maxQueueLen:  64,
		meanWait:     67.69866709739463,
		waitStdDev:   50.74128467531234,
		maxWait:      160.1030513188407,
		meanResponse: 68.72467912435617,
		issued:       4477,
		completions:  4479,
		events:       8956,
		grants:       []uint64{1868, 652, 326, 326, 326, 327, 327, 327},
	},
	{
		name: "mmpp2-buffered",
		mutate: func(c *Config) {
			c.Mode = ModeBuffered
			c.BufferCap = Infinite
			c.Processors = 16
			c.ThinkRate = 0.05
			c.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
		},
		utilization:  1,
		throughput:   1.0002222222222221,
		meanQueueLen: 192.59579749320193,
		maxQueueLen:  434,
		meanWait:     166.5604428774278,
		waitStdDev:   163.12098349206812,
		maxWait:      832.7883208770145,
		meanResponse: 167.51101568149625,
		issued:       4849,
		completions:  4501,
		events:       9350,
		grants: []uint64{275, 276, 243, 265, 243, 324, 288, 271,
			295, 263, 278, 264, 303, 360, 226, 327},
	},
}

func TestSingleBusBitIdenticalToPreFabricEngine(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			cfg := DefaultConfig().AtHorizon(5000)
			cfg.Seed = 42
			g.mutate(&cfg)
			res := mustSim(t, cfg)
			// Floats compared with ==: the contract is bit identity, not
			// statistical agreement.
			exact := []struct {
				name      string
				got, want float64
			}{
				{"utilization", res.Utilization, g.utilization},
				{"throughput", res.Throughput, g.throughput},
				{"mean_queue_len", res.MeanQueueLen, g.meanQueueLen},
				{"max_queue_len", res.MaxQueueLen, g.maxQueueLen},
				{"mean_wait", res.MeanWait, g.meanWait},
				{"wait_std_dev", res.WaitStdDev, g.waitStdDev},
				{"max_wait", res.MaxWait, g.maxWait},
				{"mean_response", res.MeanResponse, g.meanResponse},
				{"measured_time", res.MeasuredTime, 4500},
			}
			for _, f := range exact {
				if f.got != f.want {
					t.Errorf("%s = %v, want the pre-fabric engine's %v (diff %g)",
						f.name, f.got, f.want, math.Abs(f.got-f.want))
				}
			}
			if res.Issued != g.issued || res.Completions != g.completions || res.Events != g.events {
				t.Errorf("issued/completions/events = %d/%d/%d, want %d/%d/%d",
					res.Issued, res.Completions, res.Events, g.issued, g.completions, g.events)
			}
			if len(res.Grants) != len(g.grants) {
				t.Fatalf("grants has %d entries, want %d", len(res.Grants), len(g.grants))
			}
			for i, w := range g.grants {
				if res.Grants[i] != w {
					t.Errorf("grants[%d] = %d, want %d", i, res.Grants[i], w)
				}
			}
			// The single bus's per-bus breakdown is the aggregate itself.
			if len(res.BusUtilization) != 1 || res.BusUtilization[0] != res.Utilization {
				t.Errorf("single-bus BusUtilization = %v, want [utilization]", res.BusUtilization)
			}
			// Legacy configs that predate the Buses field (zero value) must
			// normalize to the same single-bus run.
			legacy := cfg
			legacy.Buses = 0
			if got := legacy.Normalized().Buses; got != 1 {
				t.Fatalf("Buses = 0 normalized to %d, want 1", got)
			}
			again := mustSim(t, legacy)
			if again.MeanWait != res.MeanWait || again.Completions != res.Completions {
				t.Fatal("Buses = 0 and Buses = 1 ran different trajectories")
			}
		})
	}
}
