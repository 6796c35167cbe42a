package sim

import "math"

// Histogram geometry: 16 linear sub-buckets per power-of-two octave
// (HDR-histogram style), spanning 2^histMinExp ≈ 9.3e-10 up to
// 2^histMaxExp ≈ 1.7e10 — far beyond any wait or response a stable run
// can produce in the model's time units. A bucket spans at most 1/16 of
// its octave, so any quantile's bucket-midpoint estimate is within
// ~3% relative error. Values outside the span clamp into the edge
// buckets; the geometry is a package-level constant, so every Histogram
// is merge-compatible with every other by construction.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histMinExp  = -30
	histMaxExp  = 34
	histBuckets = (histMaxExp - histMinExp) * histSub
)

// Histogram is a streaming collector for per-observation latency
// distributions (waiting times, response times): log-bucketed counts
// plus exact min/max, supporting quantile queries and lossless merging
// across replications. Unlike Tally it retains the shape of the
// distribution, not just its first two moments, in bounded memory
// regardless of sample count — the tail-latency counterpart of
// Welford's running mean.
//
// Its counts are a window of the fixed geometry's 1,024 buckets. A live
// collector takes the whole geometry (8 KB) on its first Add and keeps
// it through Reset, so a collector recycled from run to run adds
// without allocating. A snapshot holds exactly the buckets from its
// first to its last nonzero one, typically a few hundred: Snapshots
// makes them, and so does Merge into an empty histogram. Equal
// observations therefore give equal snapshots, whatever the history of
// the collector they were taken from.
//
// Indexing is pure bit manipulation on the float64 representation (the
// exponent selects the octave, the mantissa's top bits the sub-bucket),
// so Add costs a few nanoseconds on the simulator's hot path — no
// logarithms.
//
// The zero value is an empty, ready-to-use histogram. A value copy
// shares the original's buckets: to keep a histogram's state, take a
// snapshot, and treat a snapshot as read-only.
type Histogram struct {
	counts []uint64 // counts[i] is bucket lo+i; every other bucket is empty
	lo     int
	zero   uint64 // observations ≤ 0 (an immediately granted request waits exactly 0)
	total  uint64
	min    float64
	max    float64
}

// histIndex maps a positive observation to its bucket, clamping values
// outside the tracked span into the edge buckets.
func histIndex(x float64) int {
	bits := math.Float64bits(x)
	exp := int(bits >> 52) // sign bit is 0 for x > 0
	if exp == 0 {
		return 0 // subnormal: far below the tracked span
	}
	i := (exp-1023-histMinExp)<<histSubBits + int(bits>>(52-histSubBits))&(histSub-1)
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histMid returns the representative value of bucket i: the midpoint of
// [2^o·(1+s/16), 2^o·(1+(s+1)/16)) for octave o and sub-bucket s.
func histMid(i int) float64 {
	octave := math.Exp2(float64(i>>histSubBits + histMinExp))
	return octave * (1 + (float64(i&(histSub-1))+0.5)/histSub)
}

// Add records one observation. Non-positive observations (immediate
// grants) land in a dedicated zero bucket and report as exactly 0 in
// quantile queries.
func (h *Histogram) Add(x float64) {
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
		if len(h.counts) != histBuckets {
			h.spanAll()
		}
		h.counts[histIndex(x)]++
	} else {
		h.zero++
	}
}

// spanAll widens h's window to the whole geometry, keeping its counts:
// what a live collector holds from its first Add on.
func (h *Histogram) spanAll() {
	all := make([]uint64, histBuckets)
	copy(all[h.lo:], h.counts)
	h.counts, h.lo = all, 0
}

// trimmed returns h's counts from its first to its last nonzero bucket,
// and the first one's index in the geometry; the slice is empty when no
// bucket counts anything.
func (h *Histogram) trimmed() ([]uint64, int) {
	c, lo := h.counts, h.lo
	for len(c) > 0 && c[0] == 0 {
		c, lo = c[1:], lo+1
	}
	for len(c) > 0 && c[len(c)-1] == 0 {
		c = c[:len(c)-1]
	}
	return c, lo
}

// Count returns the number of observations recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Reset discards every accumulated observation, returning the histogram
// to its zero state — the warmup-truncation primitive, matching
// Tally.Reset. A live collector keeps its buckets, cleared; a narrower
// window, which a live collector would widen at its next Add anyway, is
// dropped rather than cleared, so resetting a copy of a snapshot leaves
// the snapshot alone.
func (h *Histogram) Reset() {
	counts := h.counts
	if len(counts) == histBuckets {
		clear(counts)
	} else {
		counts = nil
	}
	*h = Histogram{counts: counts}
}

// Merge folds the observations of others into h, in order; nil and
// empty ones are skipped. Bucket counts add exactly (the geometry is
// shared by construction), so merging the per-replication histograms of
// an experiment yields the same counts as one histogram over the pooled
// samples. h's window widens at most once, to cover its own buckets and
// every other's nonzero ones, and h never takes over another's buckets.
// Merged into an empty histogram, others make it a snapshot of exactly
// their nonzero buckets.
func (h *Histogram) Merge(others ...*Histogram) {
	var n uint64                         // observations to fold in
	lo, hi := h.lo, h.lo+len(h.counts)-1 // the union window; empty while hi < lo
	if h.total == 0 {
		lo, hi = 0, -1 // an empty h has no buckets worth keeping
	}
	for _, o := range others {
		if o == nil || o.total == 0 {
			continue
		}
		n += o.total
		c, olo := o.trimmed()
		switch {
		case len(c) == 0:
		case hi < lo:
			lo, hi = olo, olo+len(c)-1
		default:
			lo, hi = min(lo, olo), max(hi, olo+len(c)-1)
		}
	}
	if n == 0 {
		return
	}
	if h.total == 0 {
		h.counts, h.lo = nil, 0
	}
	if hi >= lo && (len(h.counts) == 0 || lo < h.lo || hi >= h.lo+len(h.counts)) {
		counts := make([]uint64, hi-lo+1)
		if len(h.counts) > 0 {
			copy(counts[h.lo-lo:], h.counts)
		}
		h.counts, h.lo = counts, lo
	}
	for _, o := range others {
		if o == nil || o.total == 0 {
			continue
		}
		if c, olo := o.trimmed(); len(c) > 0 {
			dst := h.counts[olo-h.lo:]
			for i, x := range c {
				dst[i] += x
			}
		}
		if h.total == 0 {
			h.min, h.max = o.min, o.max
		} else {
			if o.min < h.min {
				h.min = o.min
			}
			if o.max > h.max {
				h.max = o.max
			}
		}
		h.zero += o.zero
		h.total += o.total
	}
}

// Snapshots returns a snapshot of each of hs, in order: the same
// observations, in exactly the buckets from the source's first to its
// last nonzero one. They share one block of headers and one backing
// array, so a set of snapshots costs at most two allocations.
func Snapshots(hs ...*Histogram) []Histogram {
	out := make([]Histogram, len(hs))
	n := 0
	for _, h := range hs {
		c, _ := h.trimmed()
		n += len(c)
	}
	buf := make([]uint64, n)
	for i, h := range hs {
		c, lo := h.trimmed()
		out[i] = Histogram{zero: h.zero, total: h.total, min: h.min, max: h.max}
		if len(c) > 0 {
			out[i].counts, out[i].lo = buf[:len(c):len(c)], lo
			buf = buf[len(c):]
			copy(out[i].counts, c)
		}
	}
	return out
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) of the
// recorded observations: the midpoint of the bucket holding the
// ⌈q·n⌉-th smallest observation, clamped into [Min, Max] so q = 0 and
// q = 1 return the exact extrema. Within the tracked span the estimate
// is within half a bucket (~3%) of the true sample quantile. An empty
// histogram returns 0. It walks only h's window.
func (h *Histogram) Quantile(q float64) float64 {
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
			return math.Min(math.Max(histMid(h.lo+i), h.min), h.max)
		}
	}
	return h.max
}
