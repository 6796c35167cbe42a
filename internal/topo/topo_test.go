package topo

import (
	"math"
	"reflect"
	"testing"

	"github.com/busnet/busnet/internal/bus"
	"github.com/busnet/busnet/internal/servdist"
	"github.com/busnet/busnet/internal/sim"
	"github.com/busnet/busnet/internal/workload"
)

// run builds and runs a fabric to the horizon, returning its metrics.
func run(t *testing.T, cfg Config, seed int64, horizon float64) (Metrics, *Fabric) {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNGStream(seed, 0)
	f, err := New(cfg, eng, rng)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	return f.Snapshot(), f
}

// A single-segment fabric is the paper's single-bus model, and it must
// replay the trajectory of bus.Network, the flat engine it replaced, bit
// for bit: same draws, same event order, same statistics. The want
// values are that engine's outputs for these five configs (6 stations,
// λ = 0.2, μ = 1, seed 7, horizon 2000, no warmup), recorded at full
// float64 precision before it was deleted — the internal twin of the
// public goldens in pkg/busnet.
func TestSingleSegmentMatchesBusNetwork(t *testing.T) {
	type want struct {
		util, meanQ, maxQ, meanWait, waitSD, maxWait, meanResp, thr float64
		issued, completions, waitHist, respHist, events             uint64
		grants                                                      []uint64
		busUtil                                                     []float64
	}
	cases := []struct {
		name string
		mode bus.Mode
		cap  int
		m    int
		want want
	}{
		{"unbuffered", bus.Unbuffered, 0, 1, want{
			util: 0.8132683917754715, meanQ: 1.1680071563564847, maxQ: 5,
			meanWait: 1.4509405669024633, waitSD: 1.893648780855731, maxWait: 11.724344108792707,
			meanResp: 2.461205426483079, thr: 0.8045,
			issued: 1610, completions: 1609, waitHist: 1610, respHist: 1609, events: 3219,
			grants:  []uint64{263, 272, 273, 261, 272, 269},
			busUtil: []float64{0.8132683917754715},
		}},
		{"buffered-finite", bus.Buffered, 3, 1, want{
			util: 0.9781634144505621, meanQ: 10.777907558614647, maxQ: 18,
			meanWait: 11.887316209948459, waitSD: 8.077073163340982, maxWait: 34.63608245699055,
			meanResp: 12.876974453044964, thr: 0.9915,
			issued: 1990, completions: 1983, waitHist: 1984, respHist: 1983, events: 3973,
			grants:  []uint64{323, 337, 331, 350, 322, 321},
			busUtil: []float64{0.9781634144505621},
		}},
		{"buffered-infinite", bus.Buffered, Infinite, 1, want{
			util: 0.9965473766059257, meanQ: 189.5219623607594, maxQ: 393,
			meanWait: 156.86822724039644, waitSD: 90.56324326686756, maxWait: 373.3481853496435,
			meanResp: 157.79155846074468, thr: 1.0005,
			issued: 2394, completions: 2001, waitHist: 2002, respHist: 2001, events: 4395,
			grants:  []uint64{333, 336, 340, 332, 333, 328},
			busUtil: []float64{0.9965473766059257},
		}},
		{"multibus-unbuffered", bus.Unbuffered, 0, 3, want{
			util: 0.3401810382849015, meanQ: 0.015473591781409812, maxQ: 3,
			meanWait: 0.015275016566051153, waitSD: 0.10101806100268858, maxWait: 1.6079428977881491,
			meanResp: 1.0227213293545054, thr: 1.013,
			issued: 2026, completions: 2026, waitHist: 2026, respHist: 2026, events: 4052,
			grants:  []uint64{342, 317, 347, 356, 338, 326},
			busUtil: []float64{0.5282764486010892, 0.3510630981179934, 0.14120356813562185},
		}},
		{"multibus-buffered", bus.Buffered, 2, 2, want{
			util: 0.5837168754105982, meanQ: 0.5378390049283653, maxQ: 8,
			meanWait: 0.46647928444260217, waitSD: 0.9842035433123729, maxWait: 9.162952775340841,
			meanResp: 1.4549260325471634, thr: 1.181,
			issued: 2364, completions: 2362, waitHist: 2364, respHist: 2362, events: 4726,
			grants:  []uint64{428, 405, 379, 381, 375, 396},
			busUtil: []float64{0.661283951716264, 0.5061497991049325},
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f, err := New(Config{
				Segments: []SegmentConfig{{
					Name: "bus", Buses: tt.m, ServiceRate: 1,
					Stations: 6, ThinkRate: 0.2, Mode: tt.mode, BufferCap: tt.cap,
				}},
				Quantiles: true,
			}, eng, sim.NewRNGStream(7, 0))
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			if err := eng.RunUntil(2000); err != nil {
				t.Fatal(err)
			}
			got := f.Snapshot()
			if len(got.Segments) != 1 {
				t.Fatalf("got %d segments", len(got.Segments))
			}
			s, w := got.Segments[0], tt.want
			pairs := []struct {
				name       string
				gotV, want float64
			}{
				{"utilization", s.Utilization, w.util},
				{"mean_queue_len", s.MeanQueueLen, w.meanQ},
				{"max_queue_len", s.MaxQueueLen, w.maxQ},
				{"mean_wait", s.MeanWait, w.meanWait},
				{"wait_std_dev", s.WaitStdDev, w.waitSD},
				{"max_wait", s.MaxWait, w.maxWait},
				{"mean_response", s.MeanResponse, w.meanResp},
				{"throughput", s.Throughput, w.thr},
			}
			for _, p := range pairs {
				if p.gotV != p.want {
					t.Errorf("%s = %v, want %v (bit-exact)", p.name, p.gotV, p.want)
				}
			}
			if s.Issued != w.issued || s.Completions != w.completions {
				t.Errorf("issued, completions = %d, %d, want %d, %d", s.Issued, s.Completions, w.issued, w.completions)
			}
			if ev := eng.Processed(); ev != w.events {
				t.Errorf("events = %d, want %d", ev, w.events)
			}
			if !reflect.DeepEqual(s.Grants, w.grants) {
				t.Errorf("grants = %v, want %v", s.Grants, w.grants)
			}
			if !reflect.DeepEqual(s.BusUtilization, w.busUtil) {
				t.Errorf("bus utilization = %v, want %v", s.BusUtilization, w.busUtil)
			}
			if s.WaitHist.Count() != w.waitHist || s.RespHist.Count() != w.respHist {
				t.Errorf("histogram counts = %d, %d, want %d, %d", s.WaitHist.Count(), s.RespHist.Count(), w.waitHist, w.respHist)
			}
			if s.Blocked != 0 {
				t.Errorf("single segment reported blocked = %v", s.Blocked)
			}
			// End-to-end response of a 1-hop fabric is the hop response.
			if len(got.Flows) != 1 || got.Flows[0].MeanResponse != w.meanResp || got.Flows[0].Completed != w.completions {
				t.Errorf("flow = %+v, want mean response %v over %d", got.Flows, w.meanResp, w.completions)
			}
		})
	}
}

// Equal (config, seed) runs are bit-identical; different seeds differ.
func TestFabricDeterminism(t *testing.T) {
	cfg := twoHopChain(8, 0.05, 1, 1.25, 4)
	a, _ := run(t, cfg, 3, 5000)
	b, _ := run(t, cfg, 3, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
	c, _ := run(t, cfg, 4, 5000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical metrics")
	}
}

// twoHopChain builds cpu(n stations, buffered-infinite, Poisson λ) →
// bridge(depth) → mem, with service rates mu0 and mu1.
func twoHopChain(n int, lambda, mu0, mu1 float64, depth int) Config {
	return Config{
		Segments: []SegmentConfig{
			{Name: "cpu", ServiceRate: mu0, Stations: n, ThinkRate: lambda,
				Mode: bus.Buffered, BufferCap: Infinite, Route: []int{1}},
			{Name: "mem", ServiceRate: mu1},
		},
		Links: []LinkConfig{{From: 0, To: 1, Depth: depth}},
	}
}

// Every request that exits visited every hop: hop-0 completions feed
// hop 1, and flow exits equal the final hop's completions. Live
// requests account for the difference between issues and exits.
func TestFlowConservation(t *testing.T) {
	m, f := run(t, twoHopChain(8, 0.05, 1, 1.25, 2), 11, 20000)
	cpu, mem := m.Segments[0], m.Segments[1]
	if cpu.Completions < mem.Completions {
		t.Errorf("hop 0 completed %d < hop 1 completed %d — requests skipped a hop",
			cpu.Completions, mem.Completions)
	}
	if m.Flows[0].Completed != mem.Completions {
		t.Errorf("flow exits %d != final hop completions %d", m.Flows[0].Completed, mem.Completions)
	}
	inFlight := int(cpu.Issued) - int(m.Flows[0].Completed)
	if f.Live() != inFlight {
		t.Errorf("Live() = %d, want issued − exited = %d", f.Live(), inFlight)
	}
	sum := 0
	for i := 0; i < 8; i++ {
		sum += f.Outstanding(0, i)
	}
	if sum != inFlight {
		t.Errorf("Σ Outstanding = %d, want %d", sum, inFlight)
	}
	// End-to-end response dominates each hop's response.
	if m.Flows[0].MeanResponse < cpu.MeanResponse || m.Flows[0].MeanResponse < mem.MeanResponse {
		t.Errorf("e2e response %v below a hop response (%v, %v)",
			m.Flows[0].MeanResponse, cpu.MeanResponse, mem.MeanResponse)
	}
}

// With a slow downstream hop and a depth-1 bridge, blocking-after-
// service must hold upstream buses a measurable fraction of the time;
// deepening the bridge strictly reduces the blocked fraction and the
// end-to-end response. This pins the backpressure direction.
func TestBridgeDepthRelievesBlocking(t *testing.T) {
	e2e := make([]float64, 0, 3)
	blocked := make([]float64, 0, 3)
	for _, depth := range []int{1, 4, Infinite} {
		// Downstream μ = 0.8 < aggregate λ·N = 8·0.12 ≈ 0.96? Keep it
		// stable but tight: λN = 0.64, μ1 = 0.8 → ρ₁ = 0.8.
		m, _ := run(t, twoHopChain(8, 0.08, 2, 0.8, depth), 5, 40000)
		e2e = append(e2e, m.Flows[0].MeanResponse)
		blocked = append(blocked, m.Segments[0].Blocked)
	}
	if !(blocked[0] > blocked[1] && blocked[1] > blocked[2]) {
		t.Errorf("blocked fraction not decreasing in depth: %v", blocked)
	}
	if blocked[2] != 0 {
		t.Errorf("infinite bridge blocked fraction = %v, want 0", blocked[2])
	}
	if !(e2e[0] > e2e[2]) {
		t.Errorf("e2e response not relieved by deeper bridge: %v", e2e)
	}
	if blocked[0] <= 0.01 {
		t.Errorf("depth-1 bridge under ρ=0.8 blocked only %v of the time — backpressure not engaging", blocked[0])
	}
}

// Unbuffered stations must never have two requests in flight: the
// station blocks until fabric exit, even across hops.
func TestUnbufferedSingleOutstanding(t *testing.T) {
	cfg := twoHopChain(4, 0.3, 1, 0.9, 1)
	cfg.Segments[0].Mode = bus.Unbuffered
	cfg.Segments[0].BufferCap = 0
	eng := sim.NewEngine()
	f, err := New(cfg, eng, sim.NewRNGStream(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	for stop := 100.0; stop <= 3000; stop += 100 {
		if err := eng.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if c := f.Outstanding(0, i); c > 1 {
				t.Fatalf("unbuffered station %d has %d requests in flight at t=%v", i, c, stop)
			}
		}
	}
}

// A segment's pending bitset tracks its claimant queues word for word:
// bit j is set exactly while claimant j's queue is nonempty, and no bit
// at or above the claimant count is set. The large fabric spans three
// words at its 130-station segment and puts the memory segment's
// inbound bridge at claimant 70, in its second word; Init takes it over
// from a one-word fabric and hands its memory back to one.
func TestPendingBitsetTracksQueues(t *testing.T) {
	small := twoHopChain(8, 0.1, 1, 1.25, 2)
	big := twoHopChain(130, 0.006, 1, 1.25, 2)
	big.Segments[1] = SegmentConfig{Name: "mem", ServiceRate: 1.25, Stations: 70,
		ThinkRate: 0.004, Mode: bus.Buffered, BufferCap: 2}
	eng := sim.NewEngine()
	var f Fabric
	for _, cfg := range []Config{small, big, small} {
		eng.Reset()
		if err := f.Init(cfg, eng, sim.NewRNGStream(5, 0)); err != nil {
			t.Fatal(err)
		}
		f.Start()
		high := make([]bool, len(f.segs)) // a bit above claimant 63 was seen set
		for stop := 1.0; stop <= 3000; stop++ {
			if err := eng.RunUntil(stop); err != nil {
				t.Fatal(err)
			}
			for k := range f.segs {
				s := &f.segs[k]
				n := len(s.grants)
				if len(s.pending) != (n+63)/64 {
					t.Fatalf("segment %d: %d words for %d claimants", k, len(s.pending), n)
				}
				for j := range 64 * len(s.pending) {
					set := s.pending[j>>6]&(1<<(j&63)) != 0
					want := false
					switch {
					case j < s.stations:
						want = s.stationQ[j].len() > 0
					case j < n:
						want = s.bridgeQ[j-s.stations].len() > 0
					}
					if set != want {
						t.Fatalf("%d claimants, segment %d, t = %v: claimant %d's bit is %v, its queue nonempty %v",
							n, k, stop, j, set, want)
					}
					high[k] = high[k] || set && j >= 64
				}
			}
		}
		if cfg.Segments[0].Stations > 64 && !(high[0] && high[1]) {
			t.Fatalf("no bit past the first word was set (%v); the run did not exercise them", high)
		}
	}
}

// A three-hop chain and a two-source tree exercise transit segments and
// merge points; throughput must be conserved end to end.
func TestTreeMergeConservation(t *testing.T) {
	cfg := Config{
		Segments: []SegmentConfig{
			{Name: "cpuA", ServiceRate: 2, Stations: 4, ThinkRate: 0.06,
				Mode: bus.Buffered, BufferCap: Infinite, Route: []int{2, 3}},
			{Name: "cpuB", ServiceRate: 2, Stations: 4, ThinkRate: 0.04,
				Mode: bus.Buffered, BufferCap: Infinite, Route: []int{2, 3}},
			{Name: "backbone", ServiceRate: 1.5},
			{Name: "mem", ServiceRate: 1.2},
		},
		Links: []LinkConfig{
			{From: 0, To: 2, Depth: 4},
			{From: 1, To: 2, Depth: 4},
			{From: 2, To: 3, Depth: 4},
		},
	}
	m, _ := run(t, cfg, 17, 40000)
	exits := m.Flows[0].Completed + m.Flows[1].Completed
	if got := m.Segments[3].Completions; got != exits {
		t.Errorf("mem completed %d, flows exited %d", got, exits)
	}
	if got := m.Segments[2].Completions; got < exits {
		t.Errorf("backbone completed %d < %d exits", got, exits)
	}
	// Offered load 4·0.06 + 4·0.04 = 0.4 per unit time; conservation to
	// within the still-in-flight tail.
	want := 0.4
	if math.Abs(m.Segments[3].Throughput-want)/want > 0.05 {
		t.Errorf("exit throughput %v, want ≈ %v", m.Segments[3].Throughput, want)
	}
}

func TestConfigValidate(t *testing.T) {
	valid := twoHopChain(4, 0.1, 1, 1, 2)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutate := func(fn func(*Config)) Config {
		c := twoHopChain(4, 0.1, 1, 1, 2)
		// Deep-copy the slices the mutations touch.
		c.Segments = append([]SegmentConfig(nil), c.Segments...)
		c.Links = append([]LinkConfig(nil), c.Links...)
		fn(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no segments", Config{}},
		{"no stations", mutate(func(c *Config) { c.Segments[0].Stations = 0; c.Segments[0].Route = nil; c.Links = nil })},
		{"bad service rate", mutate(func(c *Config) { c.Segments[1].ServiceRate = 0 })},
		{"bad think rate", mutate(func(c *Config) { c.Segments[0].ThinkRate = math.Inf(1) })},
		{"negative buses", mutate(func(c *Config) { c.Segments[0].Buses = -1 })},
		{"transit with route", mutate(func(c *Config) { c.Segments[1].Route = []int{0} })},
		{"bad buffer cap", mutate(func(c *Config) { c.Segments[0].BufferCap = -3 })},
		{"route out of range", mutate(func(c *Config) { c.Segments[0].Route = []int{5} })},
		{"route without link", mutate(func(c *Config) { c.Links[0].From = 1; c.Links[0].To = 0 })},
		{"self-loop", mutate(func(c *Config) { c.Links[0].To = 0 })},
		{"duplicate link", mutate(func(c *Config) { c.Links = append(c.Links, LinkConfig{From: 0, To: 1, Depth: 1}) })},
		{"bad depth", mutate(func(c *Config) { c.Links[0].Depth = 0 })},
		{"dead link", mutate(func(c *Config) { c.Segments[0].Route = nil; c.Segments[1].Stations = 1; c.Segments[1].ThinkRate = 1 })},
		{"dup names", mutate(func(c *Config) { c.Segments[1].Name = "cpu" })},
		{"cycle", Config{
			Segments: []SegmentConfig{
				{Name: "a", ServiceRate: 1, Stations: 1, ThinkRate: 1, Route: []int{1, 0}},
				{Name: "b", ServiceRate: 1},
			},
			Links: []LinkConfig{{From: 0, To: 1, Depth: 1}, {From: 1, To: 0, Depth: 1}},
		}},
		{"wrong-size arbiter", mutate(func(c *Config) {
			c.Segments[0].Arbiter, c.Segments[0].Weights = bus.WeightedRoundRobin, []int{1, 2}
		})},
		{"zero weight", mutate(func(c *Config) {
			c.Segments[0].Arbiter, c.Segments[0].Weights = bus.WeightedRoundRobin, []int{1, 0, 1, 1}
		})},
		{"unknown arbiter", mutate(func(c *Config) { c.Segments[1].Arbiter = 7 })},
		{"bad service spec", mutate(func(c *Config) { c.Segments[1].Service = servdist.Spec{Kind: servdist.KindErlang} })},
		{"bad traffic spec", mutate(func(c *Config) { c.Segments[0].Traffic = workload.Spec{Kind: workload.KindMMPP2} })},
		{"NaN think rate, unconsumed", mutate(func(c *Config) {
			c.Segments[0].ThinkRate = math.NaN()
			c.Segments[0].Traffic = workload.Spec{Kind: workload.KindOnOff, BurstRate: 1, DutyCycle: 0.5, CycleTime: 10}
		})},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err == nil {
				t.Errorf("accepted: %+v", tt.cfg)
			}
		})
	}
	// Correctly sized weights cover stations + inbound bridges.
	sized := mutate(func(c *Config) {
		c.Segments[1].Stations = 1
		c.Segments[1].ThinkRate = 0.05
		c.Segments[1].Mode = bus.Buffered
		c.Segments[1].BufferCap = Infinite
		c.Segments[1].Arbiter, c.Segments[1].Weights = bus.WeightedRoundRobin, []int{3, 1}
	})
	if err := sized.Validate(); err != nil {
		t.Errorf("station-bearing sink with sized weights rejected: %v", err)
	}
}

// ResetStats drops history but preserves state: a warmup reset must not
// disturb determinism of the remaining run, and extrema reset cleanly.
func TestResetStats(t *testing.T) {
	cfg := twoHopChain(6, 0.08, 1, 1, 2)
	eng := sim.NewEngine()
	f, err := New(cfg, eng, sim.NewRNGStream(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := eng.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	if err := eng.RunUntil(5000); err != nil {
		t.Fatal(err)
	}
	m := f.Snapshot()
	if m.Elapsed != 4000 {
		t.Errorf("elapsed = %v, want 4000", m.Elapsed)
	}
	for _, s := range m.Segments {
		if s.Issued > 0 && s.Completions == 0 {
			t.Errorf("segment %s issued %d but completed none post-reset", s.Name, s.Issued)
		}
	}
}

// Utilization is exactly the mean of BusUtilization, as SegmentMetrics
// promises: on flat segments at m ∈ {1, 2, 3, 8} across populations and
// both modes, and on every hop of a bridged fabric with several buses
// per segment — each with a warmup cut that lands while buses are busy,
// and read mid-run, while some still are.
func TestUtilizationIsMeanOfBusUtilization(t *testing.T) {
	check := func(t *testing.T, cfg Config) {
		t.Helper()
		eng := sim.NewEngine()
		f, err := New(cfg, eng, sim.NewRNGStream(5, 0))
		if err != nil {
			t.Fatal(err)
		}
		f.Start()
		for _, stop := range []float64{300, 2000} {
			if err := eng.RunUntil(stop); err != nil {
				t.Fatal(err)
			}
			if stop == 300 {
				f.ResetStats()
				continue
			}
			for _, s := range f.Snapshot().Segments {
				sum := 0.0
				for _, u := range s.BusUtilization {
					sum += u
				}
				if mean := sum / float64(len(s.BusUtilization)); s.Utilization != mean {
					t.Errorf("segment %q: Utilization %v, mean of BusUtilization %v %v", s.Name, s.Utilization, mean, s.BusUtilization)
				}
			}
		}
	}
	for _, m := range []int{1, 2, 3, 8} {
		for _, n := range []int{1, 2, 5, 16} {
			for _, mode := range []bus.Mode{bus.Unbuffered, bus.Buffered} {
				check(t, Config{Segments: []SegmentConfig{{
					Name: "bus", Buses: m, ServiceRate: 1, Stations: n, ThinkRate: 0.3,
					Mode: mode, BufferCap: 3,
				}}})
			}
		}
	}
	check(t, Config{
		Segments: []SegmentConfig{
			{Name: "cpuA", Buses: 3, ServiceRate: 1, Stations: 6, ThinkRate: 0.2,
				Mode: bus.Buffered, BufferCap: Infinite, Route: []int{2, 3}},
			{Name: "cpuB", Buses: 2, ServiceRate: 1, Stations: 5, ThinkRate: 0.15,
				Mode: bus.Unbuffered, Route: []int{2, 3}},
			{Name: "backbone", Buses: 8, ServiceRate: 0.4},
			{Name: "mem", Buses: 3, ServiceRate: 0.7},
		},
		Links: []LinkConfig{
			{From: 0, To: 2, Depth: 1},
			{From: 1, To: 2, Depth: 2},
			{From: 2, To: 3, Depth: 1},
		},
	})
}
