package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: count=%d min=%v max=%v q50=%v",
			h.Count(), h.Min(), h.Max(), h.Quantile(0.5))
	}
}

// Quantile estimates must track the true sample quantiles within the
// bucket resolution (~4.4% relative error, plus the gap between
// neighboring order statistics) on a spread-out sample.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := NewRNG(17)
	xs := make([]float64, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		x := rng.Exp(0.1) // mean 10, spans several octaves
		xs = append(xs, x)
		h.Add(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		truth := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.Quantile(q)
		if e := math.Abs(got-truth) / truth; e > 0.05 {
			t.Errorf("q=%v: histogram %v vs exact sample quantile %v (rel err %.4f)", q, got, truth, e)
		}
	}
	if h.Quantile(0) != xs[0] || h.Quantile(1) != xs[len(xs)-1] {
		t.Errorf("extremes not exact: q0=%v want %v, q1=%v want %v",
			h.Quantile(0), xs[0], h.Quantile(1), xs[len(xs)-1])
	}
}

// Zero observations (immediately granted requests) are first-class: they
// occupy the low quantiles exactly.
func TestHistogramZeroBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 60; i++ {
		h.Add(0)
	}
	for i := 0; i < 40; i++ {
		h.Add(1)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %v, want 0 (60%% of observations are zero)", got)
	}
	if got := h.Quantile(0.7); got == 0 {
		t.Errorf("p70 = 0, want positive (only 60%% are zero)")
	}
	if h.Min() != 0 || h.Max() != 1 {
		t.Errorf("min/max = %v/%v, want 0/1", h.Min(), h.Max())
	}
}

// Out-of-span observations clamp into the edge buckets instead of
// corrupting memory or vanishing.
func TestHistogramClampsOutOfRange(t *testing.T) {
	var h Histogram
	h.Add(1e-300)
	h.Add(1e300)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if got := h.Quantile(1); got != 1e300 {
		t.Errorf("max quantile %v, want the exact max 1e300", got)
	}
	if got := h.Quantile(0); got != 1e-300 {
		t.Errorf("min quantile %v, want the exact min 1e-300", got)
	}
}

// Merging per-replication histograms must be lossless: exactly the
// counts of one histogram over the pooled samples.
func TestHistogramMergeEqualsPooled(t *testing.T) {
	var a, b, pooled Histogram
	rng := NewRNG(23)
	for i := 0; i < 10_000; i++ {
		x := rng.Exp(1)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		pooled.Add(x)
	}
	a.Merge(&b)
	if a.Count() != pooled.Count() {
		t.Fatalf("merged count %d != pooled %d", a.Count(), pooled.Count())
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != pooled.Quantile(q) {
			t.Errorf("q=%v: merged %v != pooled %v", q, a.Quantile(q), pooled.Quantile(q))
		}
	}
	// Merging into an empty histogram is a copy; merging an empty or nil
	// one is a no-op.
	var empty Histogram
	empty.Merge(&pooled)
	if empty.Quantile(0.5) != pooled.Quantile(0.5) {
		t.Error("merge into empty did not copy")
	}
	before := pooled.Count()
	pooled.Merge(&Histogram{})
	pooled.Merge(nil)
	if pooled.Count() != before {
		t.Error("merging empty/nil changed the histogram")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(float64(i + 1))
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatalf("Reset left residue: count=%d max=%v", h.Count(), h.Max())
	}
	h.Add(2)
	if h.Min() != 2 || h.Max() != 2 || h.Count() != 1 {
		t.Fatalf("histogram unusable after Reset: %v/%v/%d", h.Min(), h.Max(), h.Count())
	}
}

// denseHist is the histogram with every bucket of the geometry embedded,
// the layout before windows: the reference FuzzHistogramMatchesDense
// holds the windowed Histogram to.
type denseHist struct {
	counts   [histBuckets]uint64
	zero     uint64
	total    uint64
	min, max float64
}

func (h *denseHist) add(x float64) {
	h.total++
	if h.total == 1 {
		h.min, h.max = x, x
	} else {
		if x < h.min {
			h.min = x
		}
		if x > h.max {
			h.max = x
		}
	}
	if x > 0 {
		h.counts[histIndex(x)]++
	} else {
		h.zero++
	}
}

func (h *denseHist) merge(o *denseHist) {
	if o.total == 0 {
		return
	}
	if h.total == 0 {
		*h = *o
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.zero += o.zero
	h.total += o.total
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *denseHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	cum := h.zero
	if cum >= rank {
		return 0
	}
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return math.Min(math.Max(histMid(i), h.min), h.max)
		}
	}
	return h.max
}

// histSpecials are the observations at the edges of Add's cases: zeros
// and negatives (the zero bucket), subnormals and values below the
// span (clamped into bucket 0), the span's edges, values above it
// (clamped into the last bucket), the infinities and NaN.
var histSpecials = []float64{
	0, math.Copysign(0, -1), -1, -1e300, math.Inf(-1), math.NaN(), math.Inf(1),
	math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 1e-300,
	0x1p-30, math.Nextafter(0x1p-30, 0), 0x1p34, math.Nextafter(0x1p34, 0), 1e300, math.MaxFloat64,
	1, 0.5, 3,
}

// fuzzObservation decodes one observation from the front of *prog: a
// special value, raw float64 bits, or a value in an octave from -40 to
// 39, across the whole span and beyond both of its ends.
func fuzzObservation(prog *[]byte) float64 {
	take := func() byte {
		if len(*prog) == 0 {
			return 0
		}
		b := (*prog)[0]
		*prog = (*prog)[1:]
		return b
	}
	b := take()
	switch b & 3 {
	case 0:
		return histSpecials[int(b>>2)%len(histSpecials)]
	case 1:
		if len(*prog) < 8 {
			return float64(b)
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(*prog))
		*prog = (*prog)[8:]
		return x
	default:
		return math.Ldexp(1+float64(b>>2)/64, int(take())%80-40)
	}
}

// matchDense fails unless h holds exactly ref's observations: every
// bucket of the geometry, inside h's window or out, and Count, Min, Max
// and the quantiles bit for bit.
func matchDense(t *testing.T, what string, h *Histogram, ref *denseHist) {
	t.Helper()
	if h.lo < 0 || h.lo+len(h.counts) > histBuckets {
		t.Fatalf("%s: window [%d, %d) outside the geometry", what, h.lo, h.lo+len(h.counts))
	}
	for i, want := range ref.counts {
		got := uint64(0)
		if j := i - h.lo; j >= 0 && j < len(h.counts) {
			got = h.counts[j]
		}
		if got != want {
			t.Fatalf("%s: bucket %d holds %d, want %d", what, i, got, want)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	refMin, refMax := 0.0, 0.0
	if ref.total > 0 {
		refMin, refMax = ref.min, ref.max
	}
	if h.Count() != ref.total || !same(h.Min(), refMin) || !same(h.Max(), refMax) {
		t.Fatalf("%s: count/min/max %d/%v/%v, want %d/%v/%v", what, h.Count(), h.Min(), h.Max(), ref.total, refMin, refMax)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		if got, want := h.Quantile(q), ref.quantile(q); !same(got, want) {
			t.Fatalf("%s: quantile(%v) = %v, want %v", what, q, got, want)
		}
	}
}

// matchSnapshot is matchDense for a snapshot, whose window must be
// exactly ref's first to last nonzero bucket, and empty without one.
func matchSnapshot(t *testing.T, what string, h *Histogram, ref *denseHist) {
	t.Helper()
	matchDense(t, what, h, ref)
	first, last := 0, -1
	for i, c := range ref.counts {
		if c != 0 {
			if last < 0 {
				first = i
			}
			last = i
		}
	}
	if len(h.counts) != last-first+1 || (len(h.counts) > 0 && h.lo != first) {
		t.Fatalf("%s: window [%d, %d), want [%d, %d)", what, h.lo, h.lo+len(h.counts), first, last+1)
	}
}

// FuzzHistogramMatchesDense runs a fuzzed program over three windowed
// histograms and their dense twins: adds, merges in both directions
// between them, merges of two into an empty histogram (which then
// replaces the first, so later adds widen a snapshot), snapshots, and
// resets followed by reuse. Each histogram must match its twin bit for
// bit before every reset and at the end, and every snapshot must span
// exactly its nonzero buckets.
func FuzzHistogramMatchesDense(f *testing.F) {
	f.Add([]byte{0x00, 0x02, 0x10, 0x0a, 0x20, 0x0e, 0x04, 0x06})
	f.Add([]byte{0x00, 0x16, 0x08, 0x06, 0x30, 0x0c, 0x30, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x1e, 0x27})
	f.Add([]byte{0x02, 0x40, 0x0a, 0x50, 0x12, 0x60, 0x04, 0x0c, 0x14, 0x07, 0x00, 0x02, 0x20, 0x06, 0x0d, 0x00, 0x4c})
	f.Add([]byte{0x00, 0x14, 0x00, 0x18, 0x00, 0x04, 0x05, 0x06, 0x0e, 0x08, 0x00})
	f.Fuzz(func(t *testing.T, prog []byte) {
		// A hundred steps reach every case. Longer programs only slow
		// down each execution, and the fuzzer minimizes every new input
		// by executing it many times.
		if len(prog) > 128 {
			prog = prog[:128]
		}
		var hs [3]Histogram
		var refs [3]denseHist
		check := func(step, i int) {
			t.Helper()
			matchDense(t, fmt.Sprintf("step %d: histogram %d", step, i), &hs[i], &refs[i])
		}
		step := 0
		for ; len(prog) > 0; step++ {
			op := prog[0]
			prog = prog[1:]
			k, j := int(op>>3)%3, (int(op>>3)+1)%3
			switch op & 7 {
			case 0, 1, 2, 3:
				x := fuzzObservation(&prog)
				hs[k].Add(x)
				refs[k].add(x)
			case 4:
				hs[j].Merge(&hs[k])
				refs[j].merge(&refs[k])
			case 5:
				hs[k].Merge(&hs[j], nil, &Histogram{})
				refs[k].merge(&refs[j])
			case 6:
				var pooled Histogram
				pooled.Merge(&hs[k], &hs[j])
				ref := refs[k]
				ref.merge(&refs[j])
				matchSnapshot(t, fmt.Sprintf("step %d: merge into empty", step), &pooled, &ref)
				snaps := Snapshots(&hs[k], &hs[j])
				matchSnapshot(t, fmt.Sprintf("step %d: snapshot of %d", step, k), &snaps[0], &refs[k])
				matchSnapshot(t, fmt.Sprintf("step %d: snapshot of %d", step, j), &snaps[1], &refs[j])
				hs[k], refs[k] = pooled, ref
			case 7:
				check(step, k)
				hs[k].Reset()
				refs[k] = denseHist{}
			}
		}
		for i := range hs {
			check(step, i)
		}
	})
}
