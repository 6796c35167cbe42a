package topo

// ring is a FIFO backed by a power-of-two ring buffer. Claimant queues
// live on the dispatch hot path, so they reuse their storage forever:
// after warmup the queue path allocates nothing. Station queues hold
// bare issue times, bridge queues whole requests.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v, growing the buffer (doubling, so amortized O(1)) only
// when full. Finite queues never grow after New sizes them.
func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest entry. Callers check len first.
// The vacated slot is cleared so a bridge queue never pins a request's
// route after it moves on.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// len reports the number of queued entries.
func (q *ring[T]) len() int { return q.n }

// at returns the i-th oldest entry without removing it, for inspection
// in invariant checks. Callers keep i < len.
func (q *ring[T]) at(i int) T { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// grow doubles the buffer, unrolling the wrapped contents to the front
// so the ring arithmetic stays a single mask.
func (q *ring[T]) grow() {
	size := max(2*len(q.buf), 2)
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// carve sizes every ring in qs to hold c entries without growing, out
// of one shared backing array: one allocation for a whole segment's
// station queues instead of one per station.
func carve[T any](qs []ring[T], c int) {
	size := 1
	for size < c {
		size <<= 1
	}
	backing := make([]T, size*len(qs))
	for i := range qs {
		qs[i].buf = backing[i*size : (i+1)*size : (i+1)*size]
	}
}
