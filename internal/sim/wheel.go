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

// wheel is the engine's pending-event set, a calendar queue whose year
// slides with its scan frontier (R. Brown, "Calendar queues", CACM
// 31(10), 1988). Absolute bucket a covers the simulated times
// [origin + a·width, origin + (a+1)·width) and lives in slot
// a mod len(heads), a power of two. The window is the buckets
// [cur, cur + len(heads)) from the scan frontier cur on, so it moves
// forward with the frontier; events beyond it wait in a sorted overflow
// level (a binary heap), and each moves into its bucket as soon as the
// window's end passes it. An occupancy bitmap locates the next
// non-empty bucket in a few word operations. Events are indices into
// the arena ev, whose record 0 is a sentinel, so index 0 means none; a
// bucket is a singly linked chain through the records.
//
// Firing is O(1) amortized. Once per frontier revolution — every
// len(heads) buckets the frontier passes, or when an empty window jumps
// to the overflow head — the width is re-estimated as half that
// revolution's mean inter-fire gap and the bucket count as wheelSpread×
// the pending events, so expected bucket occupancy stays O(1) and the
// window spans many times the pending set's spread. Only past a 2×
// change in width, or a growth or 4× shrink in count, is the window
// rebuilt and every pending event placed again. Two checks off the
// common path catch what a revolution's end would see too late: a
// bucket scan of wheelLongChain events re-estimates at once, because
// buckets far wider than the gaps pin the frontier, and a push into
// the overflow level grows the window at once when the pending set has
// outgrown it, without ending the revolution.
//
// Ordering contract: strict (t, seq) order with seq assigned in push
// call order. The argument is monotonicity: the absolute bucket index
// ⌊(t − origin)·invW⌋ is a weakly monotone pure function of t, so an
// event in a lower bucket never has a later t than one in a higher
// bucket, equal times always share a bucket, and the per-bucket minimum
// scan compares exact (t, seq) keys — chain order is irrelevant. Every
// bucketed event's absolute bucket lies in [cur, cur + len(heads)), so
// a slot names exactly one bucket, and the circular sweep from the
// frontier's slot meets buckets in absolute order. Events that map
// below the frontier are clamped up to it, which preserves the
// invariant: their t is no later than every event in higher buckets.
// The overflow level only holds events that map at or past the
// window's end, which by the same monotonicity are later than every
// bucketed event, and each migrates before the frontier can reach its
// bucket. A rebuild places every event again by these same rules.
type wheel struct {
	ev     []event  // the arena; ev[0] is the sentinel
	heads  []int32  // bucket chain heads by slot; 0 for an empty slot
	bits   []uint64 // occupancy bitmap: bit s set iff heads[s] is non-zero
	cur    int      // scan frontier, an absolute bucket: buckets below it are empty
	origin float64  // time at the left edge of absolute bucket 0
	width  float64  // bucket span in simulated time
	invW   float64  // 1/width
	endF   float64  // float64(cur + len(heads)), the window's end
	count  int      // events held in buckets (excludes overflow)

	over    []int32 // far-future events: a binary heap keyed (t, seq)
	overF   float64 // the overflow head's (t − origin)·invW; +Inf when empty
	nextSeq uint64

	// The frontier revolution in progress ends when the frontier
	// reaches revEnd. revT and revPopped are the last pop's time and the
	// events popped when it began; lastPop is the last pop's time now.
	revEnd    int
	revT      float64
	revPopped uint64
	lastPop   float64

	// Self-measurement totals surfaced through Engine.Counters: pushes
	// that landed in the overflow level, window rebuilds (an empty
	// window's jump to the overflow head among them), and the rebuilds
	// that changed the bucket count. Deterministic for a fixed push/pop
	// sequence, so they double as regression canaries for the adaptive
	// sizing heuristics.
	nOverflow uint64
	nRebases  uint64
	nResizes  uint64
}

const (
	wheelMinBuckets = 64
	wheelMaxBuckets = 1 << 16
	// wheelSpread scales the bucket count relative to the pending-event
	// count. Pending events spread over roughly pending·gap of simulated
	// time, and the window spans buckets·width ≈ spread·pending·gap/2,
	// so the overflow level only sees the distribution tail beyond that.
	wheelSpread = 16
	// wheelMinWidth keeps invW finite even if the observed gaps collapse
	// to a subnormal average (e.g. long runs of simultaneous events).
	wheelMinWidth = 1e-300
	// wheelMaxFrontier bounds the frontier's absolute bucket, so that
	// cur + len(heads) stays an exact float64 integer and f < endF
	// means ⌊f⌋ < cur + len(heads). A revolution that ends past it
	// rebuilds the window from bucket 0.
	wheelMaxFrontier = 1 << 50
	// wheelLongChain is the bucket chain length at which a pop refits
	// the window without waiting for the revolution's end. At half the
	// mean gap per bucket a scan this long is rare unless events tie,
	// and tied pops add zero gaps, which never widen the buckets.
	wheelLongChain = 8
)

// push inserts event i, firing at t, and assigns its insertion
// sequence number.
func (w *wheel) push(i int32, t float64) {
	e := &w.ev[i]
	e.t = t
	e.seq = w.nextSeq
	w.nextSeq++
	f := (t - w.origin) * w.invW
	if !(f < w.endF) {
		// Beyond the window (or NaN arithmetic from an infinite time):
		// park in the sorted overflow level.
		w.nOverflow++
		w.overPush(i)
		if w.over[0] == i {
			w.overF = f
		}
		if n := w.buckets(); n > len(w.heads) {
			// The pending set has outgrown the window: grow it now
			// rather than at the revolution's end, and let the
			// revolution run on from the rebuilt frontier.
			w.revEnd -= w.cur
			w.rebuild(w.lastPop, w.width, n)
		}
		return
	}
	w.place(i, w.bucket(f))
}

// bucket returns the absolute bucket of a position f = (t − origin)·invW
// below the window's end: ⌊f⌋, clamped up to the frontier. Exact
// (t, seq) comparison inside the bucket keeps the pop order right for
// a clamped event.
func (w *wheel) bucket(f float64) int {
	if f > float64(w.cur) {
		return int(f)
	}
	return w.cur
}

// place links event i at the head of absolute bucket b's chain. Setting
// the occupancy bit unconditionally saves a branch on whether the
// bucket was empty.
func (w *wheel) place(i int32, b int) {
	s := b & (len(w.heads) - 1)
	w.bits[s>>6] |= 1 << (s & 63)
	w.ev[i].next = w.heads[s]
	w.heads[s] = i
	w.count++
}

// nextBucket returns the first non-empty bucket at or after the
// frontier, as an absolute index; the window must hold an event. It
// sweeps the occupancy bitmap circularly from the frontier's slot, so
// skipping a run of empty buckets costs one word operation per 64 of
// them rather than a load each.
func (w *wheel) nextBucket() int {
	mask := len(w.heads) - 1
	s := w.cur & mask
	wi := s >> 6
	if word := w.bits[wi] >> (s & 63); word != 0 {
		return w.cur + bits.TrailingZeros64(word)
	}
	// The last word visited is wi again, for the slots below s that
	// hold the window's far end.
	for j := (wi + 1) & (len(w.bits) - 1); ; j = (j + 1) & (len(w.bits) - 1) {
		if word := w.bits[j]; word != 0 {
			return w.cur + (j<<6+bits.TrailingZeros64(word)-s)&mask
		}
	}
}

// popLE removes and returns the earliest event whose time is ≤ limit,
// or 0 when the wheel is empty or the earliest event lies beyond the
// limit — the engine's fused peek-and-pop. Moving the frontier to the
// next non-empty bucket slides the window's end with it, migrating the
// overflow events it passes, and may end a revolution.
func (w *wheel) popLE(limit float64) int32 {
	for {
		if w.count == 0 {
			if len(w.over) == 0 || w.ev[w.over[0]].t > limit {
				return 0
			}
			w.reanchor()
		}
		b := w.nextBucket()
		if b != w.cur {
			w.cur = b
			if b >= w.revEnd {
				if w.refit() {
					continue // rebuilt: sweep again from the new frontier
				}
				w.startRevolution()
			}
			w.endF = float64(b + len(w.heads))
			if w.overF < w.endF {
				w.migrate()
			}
		}
		// The bucket's minimum by exact (t, seq), and its predecessor in
		// the chain for the unlink.
		s := b & (len(w.heads) - 1)
		best, before := w.heads[s], int32(0)
		bt, bs := w.ev[best].t, w.ev[best].seq
		chain := 1
		for prev, i := best, w.ev[best].next; i != 0; prev, i = i, w.ev[i].next {
			if e := &w.ev[i]; e.t < bt || (e.t == bt && e.seq < bs) {
				best, before, bt, bs = i, prev, e.t, e.seq
			}
			chain++
		}
		// Buckets far wider than the gaps pin the frontier, so its
		// revolution might never end: a long chain refits early.
		if chain >= wheelLongChain && w.refit() {
			continue
		}
		if bt > limit {
			return 0
		}
		if next := w.ev[best].next; before != 0 {
			w.ev[before].next = next
		} else if w.heads[s] = next; next == 0 {
			w.bits[s>>6] &^= 1 << (s & 63)
		}
		w.count--
		w.lastPop = bt
		return best
	}
}

// migrate moves every overflow event the window's end has passed into
// its bucket, in (t, seq) order, and caches the new head's position.
func (w *wheel) migrate() {
	for len(w.over) > 0 {
		i := w.over[0]
		f := (w.ev[i].t - w.origin) * w.invW
		if !(f < w.endF) {
			w.overF = f
			return
		}
		w.overPop()
		w.place(i, w.bucket(f))
	}
	w.overF = math.Inf(1)
}

// refit re-estimates the geometry and rebuilds the window from the last
// pop's time when the estimate changed or the frontier has passed
// wheelMaxFrontier, reporting whether it rebuilt.
func (w *wheel) refit() bool {
	width, n := w.geometry()
	if width == w.width && n == len(w.heads) && w.cur < wheelMaxFrontier {
		return false
	}
	w.rebuild(w.lastPop, width, n)
	w.startRevolution()
	return true
}

// reanchor moves an empty window onto the overflow head: it ends the
// revolution there and rebuilds from the head's time, so the head lands
// in bucket 0. A +Inf head maps nowhere — (+Inf − +Inf)·invW is NaN —
// so it is placed in bucket 0 directly, and the pop always progresses;
// every event behind it is +Inf too, so exact (t, seq) order holds.
func (w *wheel) reanchor() {
	width, n := w.geometry()
	w.rebuild(w.ev[w.over[0]].t, width, n)
	if w.count == 0 {
		i := w.over[0]
		w.overPop()
		w.place(i, 0)
		w.migrate()
	}
	w.startRevolution()
}

// startRevolution begins a frontier revolution at the frontier.
func (w *wheel) startRevolution() {
	w.revEnd = w.cur + len(w.heads)
	w.revT = w.lastPop
	w.revPopped = w.nextSeq - uint64(w.count+len(w.over))
}

// geometry re-estimates the window at a revolution's end. The width
// becomes half the revolution's mean inter-fire gap when that differs
// from the current width by more than 2×: the bitmap makes empty
// buckets nearly free, so erring toward sparse buckets keeps the
// per-bucket minimum scans short. The bucket count re-targets
// wheelSpread× the pending events (a power of two, clamped to
// [wheelMinBuckets, wheelMaxBuckets]); growth is immediate, and
// shrinking waits for a 4× overshoot so an oscillating load doesn't
// thrash the geometry.
func (w *wheel) geometry() (width float64, n int) {
	width = w.width
	if pops := w.nextSeq - uint64(w.count+len(w.over)) - w.revPopped; pops > 0 {
		gap := (w.lastPop - w.revT) / float64(pops)
		est := math.Max(gap*0.5, wheelMinWidth)
		if gap > 0 && gap < math.MaxFloat64 && (est > 2*width || 2*est < width) {
			width = est
		}
	}
	if n = w.buckets(); n < len(w.heads) && 4*n > len(w.heads) {
		n = len(w.heads)
	}
	return width, n
}

// buckets returns the bucket count the pending events call for:
// wheelSpread× their number, a power of two clamped to
// [wheelMinBuckets, wheelMaxBuckets].
func (w *wheel) buckets() int {
	n := wheelMinBuckets
	for n < wheelSpread*(w.count+len(w.over)) && n < wheelMaxBuckets {
		n <<= 1
	}
	return n
}

// rebuild re-anchors the window at origin with the given geometry: the
// frontier goes to bucket 0, and every pending event is placed again —
// in its bucket if it maps below the window's end, in the overflow
// level otherwise. The bucketed events are first gathered into one
// chain through their next links, so the rebuild allocates nothing
// unless the bucket count outgrows the arrays' capacity. With every
// bucket empty, the arrays beyond any length are all zero, so a later
// rebuild or reset reslices into them.
func (w *wheel) rebuild(origin, width float64, n int) {
	w.nRebases++
	var list int32
	for wi := 0; w.count > 0; wi++ {
		for word := w.bits[wi]; word != 0; word &= word - 1 {
			s := wi<<6 + bits.TrailingZeros64(word)
			tail := w.heads[s]
			for w.count--; w.ev[tail].next != 0; w.count-- {
				tail = w.ev[tail].next
			}
			w.ev[tail].next = list
			list = w.heads[s]
			w.heads[s] = 0
		}
		w.bits[wi] = 0
	}
	if n != len(w.heads) {
		w.nResizes++
		if n <= cap(w.heads) {
			w.heads = w.heads[:n]
			w.bits = w.bits[:n/64]
		} else {
			w.heads = make([]int32, n)
			w.bits = make([]uint64, n/64)
		}
	}
	w.origin, w.width, w.invW = origin, width, 1/width
	w.cur, w.endF = 0, float64(n)
	for i := list; i != 0; {
		next := w.ev[i].next
		if f := (w.ev[i].t - origin) * w.invW; f < w.endF {
			w.place(i, w.bucket(f))
		} else {
			w.overPush(i)
		}
		i = next
	}
	w.migrate()
}

// reset drops every pending event and returns the wheel to its initial
// geometry — wheelMinBuckets buckets of unit width from time zero —
// keeping the capacity of the arena, the bucket arrays and the overflow
// heap. It walks the occupancy bitmap, so its cost is one word per 64
// buckets plus one store per occupied bucket.
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
		endF:   wheelMinBuckets,
		over:   w.over[:0],
		overF:  math.Inf(1),
		revEnd: wheelMinBuckets,
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
