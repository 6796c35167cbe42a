package sim

import (
	"math"
	"math/bits"
)

// event is one record of the engine's arena: a pending event's fire
// time, its insertion sequence number, and the index of the next event
// in its bucket chain (0 ends the chain). It holds no pointers, so
// linking and unlinking events stores no pointers either. Its callback
// lives at the same index in Engine.fns.
type event struct {
	t    float64
	seq  uint64
	next int32
}

// wheel is the engine's pending-event set, a calendar-queue scheduler:
// an array of time buckets of adaptive width covering a sliding window
// [base, base+len(heads)·width), an occupancy bitmap locating the next
// non-empty bucket in a few word operations, plus a sorted overflow
// level (a binary heap) for events beyond the window. Events are
// indices into the arena ev, whose record 0 is a sentinel, so index 0
// means none; a bucket is a singly linked chain through the records.
// Firing is O(1) amortized — the scan frontier cur only moves forward
// within a window, resizing keeps the bucket count proportional to the
// pending-event count, and the bucket width tracks the observed mean
// inter-fire gap so expected bucket occupancy stays O(1). Far-future
// events pay one O(log n) overflow insertion and one O(log n) migration
// when the window reaches them; the window spans ~16× the pending
// set's expected spread, so only deep think-time outliers ever take
// that path.
//
// Ordering contract: strict (t, seq) order with seq assigned in push
// call order. The argument is monotonicity: the bucket index is a
// weakly monotone pure function of t (subtraction, multiplication by a
// positive constant, truncation), so an event in a lower bucket never
// has a later t than one in a higher bucket, equal times always share
// a bucket, and the per-bucket minimum scan compares exact (t, seq)
// keys — chain order is irrelevant. Events that map below the scan
// frontier are clamped up to it, which preserves the invariant: their
// t is provably no later than every event in higher buckets. The
// overflow level only holds events that map beyond the window, which by
// the same monotonicity are no earlier than every bucketed event.
type wheel struct {
	ev     []event  // the arena; ev[0] is the sentinel
	heads  []int32  // bucket chain heads; 0 for an empty bucket
	bits   []uint64 // occupancy bitmap: bit b set iff heads[b] is non-zero
	cur    int      // scan frontier: buckets below cur are empty
	base   float64  // time at the left edge of bucket 0
	width  float64  // bucket span in simulated time
	invW   float64  // 1/width
	nbuckF float64  // float64(len(heads)), for the bucket range check
	count  int      // events held in buckets (excludes overflow)

	over    []int32 // far-future events: a binary heap keyed (t, seq)
	nextSeq uint64
	// peeked caches peek's result, 0 when invalid; before is its
	// predecessor in bucket cur's chain, 0 when it is the head, so the
	// pop unlinks it in O(1).
	peeked int32
	before int32

	// Mean inter-fire gap (EWMA over popped event times), the width
	// estimate applied at the next rebase.
	gapEWMA float64
	lastPop float64
	popped  bool

	// Self-measurement totals surfaced through Engine.Counters: pushes
	// that landed in the overflow level, window slides, and the slides
	// that also changed the bucket count. Deterministic for a fixed
	// push/pop sequence, so they double as regression canaries for the
	// adaptive sizing heuristics.
	nOverflow uint64
	nRebases  uint64
	nResizes  uint64
}

const (
	wheelMinBuckets = 64
	wheelMaxBuckets = 1 << 16
	// wheelSpread scales the bucket count relative to the pending-event
	// count. Pending events spread over roughly pending·gap of simulated
	// time, and the window spans buckets·width ≈ spread·pending·gap, so
	// the overflow level only sees the distribution tail beyond that.
	wheelSpread = 16
	// wheelMinWidth keeps invW finite even if the observed gaps collapse
	// to a subnormal average (e.g. long runs of simultaneous events).
	wheelMinWidth = 1e-300
)

// push inserts event i, firing at t, and assigns its insertion
// sequence number.
func (w *wheel) push(i int32, t float64) {
	e := &w.ev[i]
	e.t = t
	e.seq = w.nextSeq
	w.nextSeq++
	w.peeked = 0
	f := (t - w.base) * w.invW
	if !(f < w.nbuckF) {
		// Beyond the window (or NaN arithmetic from an infinite base):
		// park in the sorted overflow level.
		w.nOverflow++
		w.overPush(i)
		return
	}
	b := 0
	if f > 0 {
		b = int(f)
	}
	if b < w.cur {
		// Clamp early times up to the scan frontier; exact (t, seq)
		// comparison inside the bucket keeps the pop order right.
		b = w.cur
	}
	w.place(i, b)
}

// place links event i at the head of bucket b's chain. Setting the
// occupancy bit unconditionally saves a branch on whether the bucket
// was empty.
func (w *wheel) place(i int32, b int) {
	w.bits[b>>6] |= 1 << (b & 63)
	w.ev[i].next = w.heads[b]
	w.heads[b] = i
	w.count++
}

// peek returns the earliest event without removing it, or 0 when the
// wheel is empty.
func (w *wheel) peek() int32 {
	if w.peeked != 0 {
		return w.peeked
	}
	for {
		if b := w.nextBucket(); b >= 0 {
			w.cur = b
			best, before := w.heads[b], int32(0)
			bt, bs := w.ev[best].t, w.ev[best].seq
			for prev, i := best, w.ev[best].next; i != 0; prev, i = i, w.ev[i].next {
				if e := &w.ev[i]; e.t < bt || (e.t == bt && e.seq < bs) {
					best, before, bt, bs = i, prev, e.t, e.seq
				}
			}
			w.peeked, w.before = best, before
			return best
		}
		if len(w.over) == 0 {
			return 0
		}
		w.rebase()
	}
}

// nextBucket returns the index of the first non-empty bucket at or after
// the scan frontier, or -1 when the rest of the window is empty — a
// bitmap sweep, so skipping a run of empty buckets costs one word
// operation per 64 of them rather than a load each.
func (w *wheel) nextBucket() int {
	wi := w.cur >> 6
	if wi >= len(w.bits) {
		return -1
	}
	if word := w.bits[wi] >> (w.cur & 63); word != 0 {
		return w.cur + bits.TrailingZeros64(word)
	}
	for wi++; wi < len(w.bits); wi++ {
		if word := w.bits[wi]; word != 0 {
			return wi<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// popLE removes and returns the earliest event whose time is ≤ limit,
// or 0 when the wheel is empty or the earliest event lies beyond the
// limit — the engine's fused peek-and-pop.
func (w *wheel) popLE(limit float64) int32 {
	i := w.peek()
	if i == 0 {
		return 0
	}
	e := &w.ev[i]
	if e.t > limit {
		return 0
	}
	// Unlink from bucket cur, where peek found it.
	if w.before != 0 {
		w.ev[w.before].next = e.next
	} else if w.heads[w.cur] = e.next; e.next == 0 {
		w.bits[w.cur>>6] &^= 1 << (w.cur & 63)
	}
	w.count--
	w.peeked = 0
	if w.popped {
		if gap := e.t - w.lastPop; gap >= 0 && gap < math.MaxFloat64 {
			w.gapEWMA += (gap - w.gapEWMA) * 0.125
		}
	}
	w.lastPop = e.t
	w.popped = true
	return i
}

// rebase slides the window forward once every bucket has drained:
// it re-estimates the bucket width from the observed inter-fire gap,
// resizes the bucket array to track the pending-event count, anchors the
// window at the overflow minimum, and migrates every overflow event that
// now maps inside the window. Each event migrates at most once, so the
// O(log n) heap pops amortize to a constant per far-future event.
func (w *wheel) rebase() {
	w.nRebases++
	if w.gapEWMA > 0 && w.gapEWMA < math.MaxFloat64 {
		// Half the mean inter-fire gap: the bitmap makes empty buckets
		// nearly free, so erring toward sparse buckets keeps the
		// per-bucket minimum scans short.
		w.width = math.Max(w.gapEWMA*0.5, wheelMinWidth)
		w.invW = 1 / w.width
	}
	w.resize()
	w.base = w.ev[w.over[0]].t
	w.cur = 0
	n := len(w.heads)
	for len(w.over) > 0 {
		i := w.over[0]
		f := (w.ev[i].t - w.base) * w.invW
		b := 0
		switch {
		case f < float64(n):
			if f > 0 {
				b = int(f)
			}
		case w.count > 0:
			// Still beyond the window: it and everything after it (the
			// overflow pops in (t, seq) order) stay parked.
			return
		default:
			// The window head itself maps nowhere (NaN from an infinite
			// base). Force it into bucket 0 so peek always progresses;
			// exact (t, seq) comparison inside the bucket keeps the
			// order right.
		}
		w.overPop()
		w.place(i, b)
	}
}

// resize re-targets the bucket count to wheelSpread× the pending events
// (clamped to [wheelMinBuckets, wheelMaxBuckets]) so the window span
// comfortably covers the spread of the pending set. Growth is immediate;
// shrinking waits for a 4× overshoot so an oscillating load doesn't
// thrash the geometry. Called only from rebase, when every bucket is
// empty, so no event moves and the bitmap is all zero — and so is the
// array beyond the current count, which a later resize or reset
// reslices into instead of allocating while the capacity suffices.
func (w *wheel) resize() {
	total := len(w.over)
	target := wheelMinBuckets
	for target < wheelSpread*total && target < wheelMaxBuckets {
		target <<= 1
	}
	if target > len(w.heads) || target*4 <= len(w.heads) {
		w.nResizes++
		if target <= cap(w.heads) {
			w.heads = w.heads[:target]
			w.bits = w.bits[:target/64]
		} else {
			w.heads = make([]int32, target)
			w.bits = make([]uint64, target/64)
		}
	}
	w.nbuckF = float64(len(w.heads))
}

// reset drops every pending event and returns the wheel to its initial
// geometry — wheelMinBuckets buckets of unit width — keeping the
// capacity of the arena, the bucket arrays and the overflow heap. It
// walks the occupancy bitmap, so its cost is one word per 64 buckets
// plus one store per occupied bucket.
func (w *wheel) reset() {
	for wi, word := range w.bits {
		for ; word != 0; word &= word - 1 {
			w.heads[wi<<6+bits.TrailingZeros64(word)] = 0
		}
		w.bits[wi] = 0
	}
	*w = wheel{
		ev:     w.ev[:1],
		heads:  w.heads[:wheelMinBuckets],
		bits:   w.bits[:wheelMinBuckets/64],
		width:  1,
		invW:   1,
		nbuckF: wheelMinBuckets,
		over:   w.over[:0],
	}
}

// less orders events a and b by time, then by insertion sequence.
func (w *wheel) less(a, b int32) bool {
	x, y := &w.ev[a], &w.ev[b]
	if x.t != y.t {
		return x.t < y.t
	}
	return x.seq < y.seq
}

// overPush adds event i to the overflow heap.
func (w *wheel) overPush(i int32) {
	w.over = append(w.over, i)
	h := w.over
	for c := len(h) - 1; c > 0; {
		p := (c - 1) / 2
		if !w.less(h[c], h[p]) {
			break
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

// overPop removes the overflow heap's minimum, over[0].
func (w *wheel) overPop() {
	last := len(w.over) - 1
	w.over[0] = w.over[last]
	w.over = w.over[:last]
	h := w.over
	for p := 0; ; {
		c := 2*p + 1
		if c >= last {
			return
		}
		if r := c + 1; r < last && w.less(h[r], h[c]) {
			c = r
		}
		if !w.less(h[c], h[p]) {
			return
		}
		h[p], h[c] = h[c], h[p]
		p = c
	}
}
