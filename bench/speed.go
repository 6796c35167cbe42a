package main

import (
	"math"
	"time"
)

// The host this benchmark shares runs other tenants, and its speed
// drifts by tens of percent over minutes, in stretches as short as tens
// of milliseconds, while every computation in it slows alike. End-to-end
// times are therefore reported at a fixed host speed: the benchmark
// reads a reference kernel of its own between calls into the program,
// at most every segment, and scales each stretch of measured time by
// refNominal over the mean of the two readings around it. The kernel is
// code in this file, not in the program under test, so a change to the
// program moves the scaled times exactly as it moves the raw ones.
//
// refNominal is the kernel's ns per step on the 2-CPU Xeon host the
// benchmark was defined on when that host was quiet; scaled times read
// as seconds on that host. It must never change, or every record
// before the change stops being comparable.
const (
	refNominal = 49.0
	refSteps   = 40_000 // one reading, about 2 ms
	segment    = 50 * time.Millisecond
)

// refTable is the kernel's 256 KB lookup table: L2-sized, so each step
// also pays a cache access the way the simulator's model state does.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<16)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// refKernel advances the earliest of 32 pending times by a
// pseudo-random exponential delay, steps times, reading the lookup table
// at each step — the shape of a discrete-event loop (a heap sift, a
// variate draw, a touch of model state). Its speed tracked the
// workloads' own through the host's slow stretches better than the same
// loop without the table. It allocates nothing: a kernel that made
// garbage would run slower while the program's collector is busy, and
// a change that cut the program's garbage would then move the scaled
// times less than the raw ones.
func refKernel(steps int) float64 {
	var h [32]float64
	x := uint64(88172645463325252)
	exp := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return -math.Log(float64(x>>11+1) / (1 << 53))
	}
	down := func(i int) {
		for {
			m := 2*i + 1
			if m >= len(h) {
				return
			}
			if r := m + 1; r < len(h) && h[r] < h[m] {
				m = r
			}
			if h[i] <= h[m] {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := range h {
		h[i] = exp()
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var acc uint32
	for range steps {
		d := exp()
		acc += refTable[(uint32(x)^acc)&(1<<16-1)]
		h[0] += d + float64(acc&1)*1e-9
		down(0)
	}
	return h[0]
}

// refNS reads the host's current speed: ns per kernel step.
func refNS() float64 {
	start := time.Now()
	sink += refKernel(refSteps)
	return float64(time.Since(start).Nanoseconds()) / refSteps
}

// speedometer accumulates measured time scaled to the reference host
// speed. tick ends the current segment once it is at least segment
// long; the reading itself falls between segments and is not counted.
type speedometer struct {
	ref         float64 // reading at the start of the current segment
	start       time.Time
	raw, scaled time.Duration
	reads       []float64
}

func newSpeedometer() *speedometer {
	r := refNS()
	// Room for a pass's readings up front keeps tick allocation-free
	// inside the measured allocations.
	reads := make([]float64, 1, 64)
	reads[0] = r
	return &speedometer{ref: r, start: time.Now(), reads: reads}
}

func (s *speedometer) tick() {
	if time.Since(s.start) >= segment {
		s.read()
	}
}

// read ends the current segment unconditionally.
func (s *speedometer) read() {
	d := time.Since(s.start)
	r := refNS()
	s.raw += d
	s.scaled += time.Duration(float64(d) * refNominal / ((s.ref + r) / 2))
	s.ref = r
	s.reads = append(s.reads, r)
	s.start = time.Now()
}
