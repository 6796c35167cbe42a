package busnet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/busnet/busnet/internal/topo"
)

// FuzzConfigValidate drives Config.Validate and the JSON round trip
// with field-level inputs: Validate must never panic and must agree
// with the one-node lift's Topology.Validate — a flat config and its
// lift are checked by the same node rules — and any config it accepts
// must lower to a one-segment fabric that passes topo.Config.Validate
// (Fabric.Init does not check it again), survive marshal → unmarshal
// unchanged, still validate, yield analytic and fluid evaluations that
// either error cleanly or return finite, nonnegative summaries with a
// response of at least one service time, and simulate without error
// over a unit horizon: what Validate accepts, Fabric.Init builds. Huge
// population/capacity values are skipped rather than validated — they
// are legal configs whose closed forms and run state are deliberately
// O(N·cap), which a fuzzer would turn into an out-of-memory, not a
// finding.
func FuzzConfigValidate(f *testing.F) {
	seed := func(cfg Config) {
		f.Add(cfg.Processors, cfg.Buses, cfg.ThinkRate, cfg.ServiceRate,
			cfg.Mode, cfg.BufferCap, cfg.Arbiter, cfg.Weights,
			string(cfg.Traffic.Kind), cfg.Traffic.Rate0, cfg.Traffic.Rate1,
			cfg.Traffic.Switch01, cfg.Traffic.Switch10,
			cfg.Traffic.BurstRate, cfg.Traffic.DutyCycle, cfg.Traffic.CycleTime,
			string(cfg.Service.Kind), cfg.Service.Shape, cfg.Service.SCV,
			cfg.Horizon, cfg.Warmup, cfg.Quantiles)
	}
	seed(DefaultConfig())
	fluidish := DefaultConfig()
	fluidish.Processors = 256
	fluidish.Buses = 4
	fluidish.ThinkRate = 0.1
	fluidish.Quantiles = true
	seed(fluidish)
	bursty := DefaultConfig()
	bursty.Mode = ModeBuffered
	bursty.BufferCap = 4
	bursty.Buses = 4
	bursty.Traffic = MMPP2Traffic(0.02, 0.3, 0.01, 0.05)
	seed(bursty)
	weighted := DefaultConfig()
	weighted.Arbiter = WeightedRoundRobin.String()
	weighted.Weights = "4,2,1,1,1,1,1,1"
	seed(weighted)
	onoff := DefaultConfig()
	onoff.Traffic = OnOffTraffic(0.5, 0.25, 100)
	seed(onoff)
	hyper := DefaultConfig()
	hyper.Mode = ModeBuffered
	hyper.BufferCap = Infinite
	hyper.Service = HyperexpService(4)
	seed(hyper)
	erl := DefaultConfig()
	erl.Service = ErlangService(4)
	seed(erl)
	// Vanishing loads, where subtracting from 1 or from 1/μ cancels.
	for _, lambda := range []float64{1e-12, 1e-20} {
		light := DefaultConfig()
		light.ThinkRate = lambda
		seed(light)
		light.Mode, light.BufferCap = ModeBuffered, 4
		seed(light)
	}
	// Inputs the flat and the lifted checks must reject alike.
	none := DefaultConfig()
	none.Processors = 0
	seed(none)
	short := weighted
	short.Weights = "4,2,1"
	seed(short)
	nan := DefaultConfig()
	nan.ThinkRate = math.NaN()
	seed(nan)
	idle := bursty
	idle.ThinkRate = 0
	seed(idle)

	f.Fuzz(func(t *testing.T, processors, buses int, think, service float64,
		mode string, bufferCap int, arbiter, weights, kind string,
		rate0, rate1, sw01, sw10, burst, duty, cycle float64,
		svcKind string, svcShape int, svcSCV float64,
		horizon, warmup float64, quantiles bool) {
		cfg := Config{
			Processors:  processors,
			Buses:       buses,
			ThinkRate:   think,
			ServiceRate: service,
			Mode:        mode,
			BufferCap:   bufferCap,
			Arbiter:     arbiter,
			Weights:     weights,
			Traffic: Traffic{Kind: TrafficKind(kind), Rate0: rate0, Rate1: rate1,
				Switch01: sw01, Switch10: sw10,
				BurstRate: burst, DutyCycle: duty, CycleTime: cycle},
			Service:   Service{Kind: ServiceKind(svcKind), Shape: svcShape, SCV: svcSCV},
			Seed:      1,
			Horizon:   horizon,
			Warmup:    warmup,
			Quantiles: quantiles,
		}
		if cfg.Processors > 1<<12 || cfg.BufferCap > 1<<12 || cfg.Buses > 1<<12 ||
			len(cfg.Weights) > 1<<12 {
			t.Skip("legal but deliberately O(N·cap) — not a robustness finding")
		}
		err := cfg.Validate()
		if lifted := cfg.Topology().Validate(); (err == nil) != (lifted == nil) {
			t.Fatalf("Validate = %v, but its one-node lift's Validate = %v\n%+v", err, lifted, cfg)
		}
		if err != nil {
			return // rejected cleanly; nothing more to hold
		}
		lower := cfg
		fabric := topo.Config{Segments: make([]topo.SegmentConfig, 1), Quantiles: cfg.Quantiles}
		if err := lower.lowered(&fabric); err != nil {
			t.Fatalf("accepted config does not lower: %v\n%+v", err, cfg)
		}
		if err := fabric.Validate(); err != nil {
			t.Fatalf("accepted config lowers to a fabric topo refuses: %v\n%+v", err, cfg)
		}
		canon := cfg.Normalized()
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("canonical config does not marshal: %v\n%+v", err, canon)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("marshaled config does not unmarshal: %v\n%s", err, blob)
		}
		if back != canon {
			t.Fatalf("JSON round trip changed the config:\n%+v\nvs\n%+v", back, canon)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped config no longer validates: %v\n%s", err, blob)
		}
		// The model backends refuse cleanly outside their domains and
		// never emit a negative or non-finite number inside them.
		for _, b := range []Backend{BackendAnalytic, BackendFluid} {
			ev, err := Evaluate(canon, b)
			if err != nil {
				continue
			}
			fields := map[string]float64{
				"utilization": ev.Utilization, "throughput": ev.Throughput,
				"mean_wait": ev.MeanWait, "mean_response": ev.MeanResponse,
				"mean_queue_len": ev.MeanQueueLen,
			}
			if ev.Fluid != nil {
				fields["blocked"] = ev.Fluid.Blocked
			}
			for name, v := range fields {
				if !(v >= 0) || math.IsInf(v, 0) {
					t.Fatalf("%s backend returned %s = %v for valid config %+v", b, name, v, canon)
				}
			}
			if ev.MeanResponse < 1/canon.ServiceRate {
				t.Fatalf("%s backend returned response %v below one service time %v for valid config %+v",
					b, ev.MeanResponse, 1/canon.ServiceRate, canon)
			}
		}
		if unitHorizonDraws(canon) > 1e6 {
			return
		}
		canon.Horizon, canon.Warmup = 1, 0
		if _, err := Evaluate(canon, BackendSim); err != nil {
			t.Fatalf("accepted config does not simulate: %v\n%+v", err, canon)
		}
	})
}

// unitHorizonDraws estimates the variates a run of the valid config c
// over a unit horizon draws: every station's first think time, plus
// the arrivals its peak rate allows, each walking its source's hidden
// state switches and drawing its Erlang stages. Above 1e6 a legal input
// runs for seconds: too slow for a fuzz iteration, though not a fault.
// The inputs that would run for hours, a modulated source whose chain
// switches more than 2·10⁵ times per arrival and so walks its switches
// far past the horizon, Validate refuses.
func unitHorizonDraws(c Config) float64 {
	peak, switches := c.ThinkRate, 0.0
	switch tr := c.Traffic; tr.Kind {
	case TrafficMMPP2:
		peak, switches = max(tr.Rate0, tr.Rate1), tr.Switch01+tr.Switch10
	case TrafficOnOff:
		peak, switches = tr.BurstRate, 1/(tr.DutyCycle*tr.CycleTime)+1/((1-tr.DutyCycle)*tr.CycleTime)
	}
	perArrival := 1 + switches/c.MeanThinkRate() + float64(c.Service.Shape)
	return float64(c.Processors) * max(1, peak) * perArrival
}

// FuzzTopologyValidate drives Topology.Validate with field-level inputs
// over a cpu → mem fabric: both nodes' station fields (mem has no
// processors unless the fuzzer gives it some), mem's arbitration and
// the bridge depth. Validate must never panic, and any topology it
// accepts must lower to a fabric that passes topo.Config.Validate
// (Fabric.Init does not check it again), marshal, hash with
// CanonicalHash, validate again after a JSON round trip that re-encodes
// to the same bytes, and simulate without error over a unit horizon:
// what Validate accepts, the lowering and the fabric run. Lowering
// never writes its input: Validate, lowered and EvaluateTopology leave
// the caller's nodes deep-equal to a copy taken before (normalizing
// through a pointer into t.Nodes would write the caller's backing
// array), and lowering the topology and lowering its Normalized form
// give deep-equal fabrics. FuzzTopologyJSON cannot reach most of these
// inputs: JSON carries no NaN, and the kind decoders reject unknown
// names before Validate runs.
func FuzzTopologyValidate(f *testing.F) {
	seed := func(mutate func(cpu, mem *Node, link *Link)) {
		cpu := Node{Name: "cpu", Processors: 8, ThinkRate: 0.05, ServiceRate: 1,
			Mode: ModeBuffered, BufferCap: 4}
		mem := Node{Name: "mem", ServiceRate: 1}
		link := Link{From: "cpu", To: "mem", Buffer: 2}
		mutate(&cpu, &mem, &link)
		f.Add(cpu.Processors, cpu.Buses, cpu.ThinkRate, cpu.ServiceRate, cpu.Mode, cpu.BufferCap,
			string(cpu.Traffic.Kind), string(cpu.Service.Kind),
			mem.Processors, mem.Buses, mem.ThinkRate, mem.ServiceRate, mem.Mode, mem.BufferCap,
			string(mem.Traffic.Kind), string(mem.Service.Kind), mem.Arbiter, mem.Weights,
			link.Buffer, 1000.0, 100.0)
	}
	seed(func(cpu, mem *Node, link *Link) {})
	// A NaN think rate on the transit node: accepted, run, and then
	// unencodable before Validate refused station fields there.
	seed(func(cpu, mem *Node, link *Link) { mem.ThinkRate = math.NaN() })
	seed(func(cpu, mem *Node, link *Link) { mem.Traffic.Kind = "pareto" })
	seed(func(cpu, mem *Node, link *Link) { mem.Mode, mem.BufferCap = "garbage", -7 })
	seed(func(cpu, mem *Node, link *Link) {
		mem.Processors, mem.ThinkRate, mem.Mode, mem.BufferCap = 4, 0.05, ModeBuffered, Infinite
	})
	seed(func(cpu, mem *Node, link *Link) {
		cpu.Mode, cpu.BufferCap, cpu.Traffic.Kind = ModeUnbuffered, 0, TrafficDeterministic
		mem.Buses, mem.Service.Kind = 2, ServiceDeterministic
		mem.Arbiter, mem.Weights = WeightedRoundRobin.String(), "3"
		link.Buffer = Infinite
	})

	f.Fuzz(func(t *testing.T, cpuN, cpuBuses int, cpuThink, cpuService float64,
		cpuMode string, cpuCap int, cpuTraffic, cpuSvc string,
		memN, memBuses int, memThink, memService float64,
		memMode string, memCap int, memTraffic, memSvc, memArbiter, memWeights string,
		depth int, horizon, warmup float64) {
		if cpuN > 1<<12 || memN > 1<<12 || cpuCap > 1<<12 || memCap > 1<<12 ||
			cpuBuses > 1<<12 || memBuses > 1<<12 || depth > 1<<12 || len(memWeights) > 1<<12 {
			t.Skip("legal but deliberately O(N·cap) — not a robustness finding")
		}
		top := Topology{
			Nodes: []Node{
				{Name: "cpu", Processors: cpuN, Buses: cpuBuses, ThinkRate: cpuThink,
					ServiceRate: cpuService, Mode: cpuMode, BufferCap: cpuCap,
					Traffic: Traffic{Kind: TrafficKind(cpuTraffic)},
					Service: Service{Kind: ServiceKind(cpuSvc)}, Route: []string{"mem"}},
				{Name: "mem", Processors: memN, Buses: memBuses, ThinkRate: memThink,
					ServiceRate: memService, Mode: memMode, BufferCap: memCap,
					Traffic: Traffic{Kind: TrafficKind(memTraffic)},
					Service: Service{Kind: ServiceKind(memSvc)},
					Arbiter: memArbiter, Weights: memWeights},
			},
			Links:   []Link{{From: "cpu", To: "mem", Buffer: depth}},
			Seed:    1,
			Horizon: horizon,
			Warmup:  warmup,
		}
		// A copy of the nodes with Route slices of their own. Only
		// accepted topologies are compared: a rejected one may hold a NaN,
		// which deep equality never matches.
		nodes := make([]Node, len(top.Nodes))
		for k, n := range top.Nodes {
			n.Route = slices.Clone(n.Route)
			nodes[k] = n
		}
		unwritten := func(call string) {
			t.Helper()
			if !reflect.DeepEqual(top.Nodes, nodes) {
				t.Fatalf("%s wrote the caller's nodes:\n%+v\nwas\n%+v", call, top.Nodes, nodes)
			}
		}
		if err := top.Validate(); err != nil {
			return // rejected cleanly; nothing more to hold
		}
		unwritten("Validate")
		var fabric topo.Config
		if err := top.lowered(&fabric, nil); err != nil {
			t.Fatalf("accepted topology does not lower: %v\n%+v", err, top)
		}
		unwritten("lowered")
		if err := fabric.Validate(); err != nil {
			t.Fatalf("accepted topology lowers to a fabric topo refuses: %v\n%+v", err, top)
		}
		var canon topo.Config
		norm := top.Normalized()
		if err := norm.lowered(&canon, nil); err != nil || !reflect.DeepEqual(fabric, canon) {
			t.Fatalf("the topology and its normalized form lower differently (%v):\n%+v\nvs\n%+v", err, fabric, canon)
		}
		blob, err := json.Marshal(top)
		if err != nil {
			t.Fatalf("accepted topology does not marshal: %v\n%+v", err, top)
		}
		if _, err := CanonicalHash(top); err != nil {
			t.Fatalf("accepted topology does not hash: %v\n%+v", err, top)
		}
		var back Topology
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("marshaled topology does not unmarshal: %v\n%s", err, blob)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped topology no longer validates: %v\n%s", err, blob)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("JSON round trip changed the topology (%v):\n%s\nvs\n%s", err, again, blob)
		}
		// A unit horizon still runs about N·λ arrivals: above 1e5 a legal
		// input would run for seconds to hours and queue as many
		// requests, which is not a robustness finding either.
		if float64(cpuN)*cpuThink+float64(memN)*memThink > 1e5 {
			return
		}
		top.Horizon, top.Warmup = 1, 0
		if _, err := EvaluateTopology(top, BackendSim); err != nil {
			t.Fatalf("accepted topology does not simulate: %v\n%+v", err, top)
		}
		unwritten("EvaluateTopology")
	})
}
