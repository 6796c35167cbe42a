package bus

import (
	"fmt"
	"slices"
	"testing"
)

// bitset packs a claimant vector into Pick's words.
func bitset(pending []bool) []uint64 {
	words := make([]uint64, (len(pending)+63)/64)
	for j, p := range pending {
		if p {
			words[j>>6] |= 1 << (j & 63)
		}
	}
	return words
}

// pick calls a.Pick on the claimant vector pending.
func pick(a Arbiter, pending []bool) int { return a.Pick(bitset(pending), len(pending)) }

// xorshift is the tests' deterministic pattern generator.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func TestRoundRobinArbiter(t *testing.T) {
	tests := []struct {
		name    string
		pending [][]bool // successive Pick calls
		want    []int
	}{
		{
			name:    "single pending",
			pending: [][]bool{{false, true, false, false}},
			want:    []int{1},
		},
		{
			name: "rotates through all pending",
			pending: [][]bool{
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
				{true, true, true, true},
			},
			want: []int{0, 1, 2, 3, 0},
		},
		{
			name: "skips idle processors",
			pending: [][]bool{
				{true, false, true, false},
				{true, false, true, false},
				{true, false, true, false},
			},
			want: []int{0, 2, 0},
		},
		{
			name: "wraps past end",
			pending: [][]bool{
				{false, false, false, true},
				{true, false, false, true},
			},
			want: []int{3, 0},
		},
		{
			name: "newly pending low index waits its turn",
			pending: [][]bool{
				{false, true, false, false},
				{true, false, true, false}, // 0 became pending after 1 was granted
			},
			want: []int{1, 2}, // cyclic scan from 2, not priority to 0
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := NewRoundRobin()
			for i, pending := range tt.pending {
				if got := pick(a, pending); got != tt.want[i] {
					t.Fatalf("call %d: Pick(%v) = %d, want %d", i, pending, got, tt.want[i])
				}
			}
		})
	}
}

func TestFixedPriorityArbiter(t *testing.T) {
	tests := []struct {
		name    string
		pending []bool
		want    int
	}{
		{"lowest wins", []bool{false, true, true, false}, 1},
		{"zero dominates", []bool{true, true, true, true}, 0},
		{"last only", []bool{false, false, false, true}, 3},
	}
	a := NewFixedPriority()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := pick(a, tt.pending); got != tt.want {
				t.Fatalf("Pick(%v) = %d, want %d", tt.pending, got, tt.want)
			}
		})
	}
}

func mustWRR(t testing.TB, weights ...int) *WeightedRoundRobinArbiter {
	t.Helper()
	a, err := NewWeightedRoundRobin(weights)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewWeightedRoundRobinRejects(t *testing.T) {
	for _, tt := range []struct {
		name    string
		weights []int
	}{
		{"empty", nil},
		{"zero weight", []int{1, 0, 2}},
		{"negative weight", []int{3, -1}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewWeightedRoundRobin(tt.weights); err == nil {
				t.Fatal("invalid weights accepted")
			}
		})
	}
}

// The weight vector is copied in, so callers mutating their slice after
// construction cannot corrupt arbitration mid-run.
func TestWeightedRoundRobinCopiesWeights(t *testing.T) {
	ws := []int{2, 1}
	a := mustWRR(t, ws...)
	ws[0] = 99
	all := []bool{true, true}
	grants := make([]int, 2)
	for i := 0; i < 6; i++ {
		grants[pick(a, all)]++
	}
	if grants[0] != 4 || grants[1] != 2 {
		t.Fatalf("grants = %v, want [4 2]; caller's slice leaked in", grants)
	}
}

// Under saturation (everyone always pending) the long-run grant shares
// must match the weight ratios exactly: each full cycle hands processor
// i precisely weights[i] grants.
func TestWeightedRoundRobinSharesMatchWeights(t *testing.T) {
	tests := []struct {
		name    string
		weights []int
	}{
		{"uniform", []int{1, 1, 1, 1}},
		{"ramp", []int{1, 2, 3, 4}},
		{"one heavy", []int{8, 1, 1, 1}},
		{"two classes", []int{4, 4, 1, 1, 1, 1}},
		{"sixteen mixed", []int{7, 1, 3, 1, 5, 1, 1, 2, 1, 1, 4, 1, 1, 6, 1, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := mustWRR(t, tt.weights...)
			n := len(tt.weights)
			pending := make([]bool, n)
			for i := range pending {
				pending[i] = true
			}
			cycle := 0
			for _, w := range tt.weights {
				cycle += w
			}
			const cycles = 50
			grants := make([]int, n)
			for g := 0; g < cycles*cycle; g++ {
				grants[pick(a, pending)]++
			}
			for i, w := range tt.weights {
				if grants[i] != cycles*w {
					t.Errorf("processor %d: %d grants over %d cycles, want exactly %d (weight %d); grants %v",
						i, grants[i], cycles, cycles*w, w, grants)
				}
			}
		})
	}
}

// With idle processors in the mix the arbiter must stay work-conserving
// — every Pick grants someone — and still favor the heavy processor
// whenever it competes.
func TestWeightedRoundRobinWorkConserving(t *testing.T) {
	a := mustWRR(t, 3, 1, 1)
	// Processor 0 goes idle mid-window: its remaining credit is forfeited
	// and the grant moves on immediately.
	if got := pick(a, []bool{true, true, true}); got != 0 {
		t.Fatalf("first grant = %d, want 0", got)
	}
	if got := pick(a, []bool{false, true, true}); got != 1 {
		t.Fatalf("grant with 0 idle = %d, want 1 (window forfeited)", got)
	}
	// Back pending: 0 gets a fresh window after the cycle passes it.
	if got := pick(a, []bool{true, false, true}); got != 2 {
		t.Fatalf("grant = %d, want 2 (cyclic order)", got)
	}
	for i := 0; i < 3; i++ {
		if got := pick(a, []bool{true, false, false}); got != 0 {
			t.Fatalf("consecutive grant %d = %d, want 0 (weight-3 window)", i, got)
		}
	}
}

// All-ones weights must be grant-for-grant identical to the plain
// round-robin arbiter on arbitrary pending patterns, scan count
// included, so "weighted with default weights" and "round-robin" are
// the same policy, not merely similar: the fabric runs the first on the
// second's arbiter.
func TestWeightedAllOnesIdenticalToRoundRobin(t *testing.T) {
	const n = 7
	rr := NewRoundRobin()
	wrr := mustWRR(t, []int{1, 1, 1, 1, 1, 1, 1}...)
	// Deterministic pseudo-random pending patterns, always ≥ 1 pending.
	state := xorshift(0x9E3779B97F4A7C15)
	pending := make([]bool, n)
	for step := 0; step < 20_000; step++ {
		bits := state.next()
		any := false
		for i := range pending {
			pending[i] = bits&(1<<uint(i)) != 0
			any = any || pending[i]
		}
		if !any {
			pending[int(bits>>32)%n] = true
		}
		if g, w := pick(rr, pending), pick(wrr, pending); g != w {
			t.Fatalf("step %d, pending %v: round-robin granted %d, weighted all-ones granted %d",
				step, pending, g, w)
		}
	}
	if g, w := rr.ScanSlots(), wrr.ScanSlots(); g != w {
		t.Fatalf("round-robin scanned %d slots, weighted all-ones %d", g, w)
	}
}

func TestArbiterPanicsWithNothingPending(t *testing.T) {
	for _, a := range []Arbiter{NewRoundRobin(), NewFixedPriority(), mustWRR(t, 1, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Pick with no pending request did not panic", a.Name())
				}
			}()
			pick(a, []bool{false, false})
		}()
	}
}

// reference is a slot-by-slot arbiter over a claimant vector, the walk
// Pick replaces: RoundRobinArbiter.Select, refWeighted and refFixed.
type reference interface {
	Select(pending []bool) int
	ScanSlots() uint64
}

// refWeighted is weighted round-robin walked slot by slot: it continues
// the current window, one probed slot, or probes each slot after
// current in cyclic order.
type refWeighted struct {
	weights       []int
	current, left int
	scanned       uint64
}

func (a *refWeighted) Select(pending []bool) int {
	if a.current >= 0 && a.left > 0 && pending[a.current] {
		a.scanned++
		a.left--
		return a.current
	}
	for i := a.current + 1; i < len(pending); i++ {
		a.scanned++
		if pending[i] {
			a.current, a.left = i, a.weights[i]-1
			return i
		}
	}
	for i := 0; i <= a.current; i++ {
		a.scanned++
		if pending[i] {
			a.current, a.left = i, a.weights[i]-1
			return i
		}
	}
	panic("refWeighted: nothing pending")
}

func (a *refWeighted) ScanSlots() uint64 { return a.scanned }

// refFixed is fixed priority walked slot by slot from claimant 0.
type refFixed struct{ scanned uint64 }

func (a *refFixed) Select(pending []bool) int {
	for i, p := range pending {
		a.scanned++
		if p {
			return i
		}
	}
	panic("refFixed: nothing pending")
}

func (a *refFixed) ScanSlots() uint64 { return a.scanned }

// weightsFrom turns fuzz bytes into n weights in [1, 8]; no bytes means
// all ones.
func weightsFrom(raw []byte, n int) []int {
	ws := make([]int, n)
	for j := range ws {
		ws[j] = 1
		if len(raw) > 0 {
			ws[j] += int(raw[j%len(raw)]) % 8
		}
	}
	return ws
}

// checkPicks runs script on each built-in arbiter and on its reference
// walk, both starting fresh, and fails unless every grant and every
// ScanSlots total agree call for call. The script is read in (op, arg)
// byte pairs, with c = (op>>2)<<8 | arg taken mod n:
//
//	op%4 == 0: pick, skipped when nothing is pending; an odd arg
//	           empties the grantee's queue
//	op%4 == 1: toggle claimant c
//	op%4 == 2: every claimant pending
//	op%4 == 3: claimant c alone pending
func checkPicks(t *testing.T, n int, weights []int, script []byte) {
	t.Helper()
	wrr, err := NewWeightedRoundRobin(weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a   Arbiter
		ref reference
	}{
		{NewRoundRobin(), NewRoundRobin()},
		{wrr, &refWeighted{weights: weights, current: -1}},
		{NewFixedPriority(), &refFixed{}},
	} {
		pending := make([]bool, n)
		picks := 0
		for k := 0; k+1 < len(script); k += 2 {
			op, arg := script[k], script[k+1]
			c := (int(op>>2)<<8 | int(arg)) % n
			switch op % 4 {
			case 0:
				if !slices.Contains(pending, true) {
					continue
				}
				got, want := tc.a.Pick(bitset(pending), n), tc.ref.Select(pending)
				picks++
				if got != want {
					t.Fatalf("%s, n = %d, pick %d: Pick granted %d, the slot-by-slot walk %d",
						tc.a.Name(), n, picks, got, want)
				}
				if got, want := tc.a.ScanSlots(), tc.ref.ScanSlots(); got != want {
					t.Fatalf("%s, n = %d, pick %d: ScanSlots %d, the slot-by-slot walk probed %d",
						tc.a.Name(), n, picks, got, want)
				}
				if arg&1 != 0 {
					pending[got] = false
				}
			case 1:
				pending[c] = !pending[c]
			case 2:
				for j := range pending {
					pending[j] = true
				}
			case 3:
				for j := range pending {
					pending[j] = j == c
				}
			}
		}
	}
}

// FuzzArbiterPick holds every built-in arbiter's Pick to its
// slot-by-slot walk (checkPicks) at claimant counts from 1 to 200, so
// words and wraps cross the 64-bit boundary. The pkg/busnet goldens pin
// the grants of fixed priority and weighted round-robin but not their
// scan counts; this covers both.
func FuzzArbiterPick(f *testing.F) {
	picks := func(k int, arg byte) []byte {
		var b []byte
		for range k {
			b = append(b, 0, arg)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	// All 16 pending, nobody empties: every scan stops one slot on.
	f.Add(uint8(15), []byte{0, 1, 2, 3}, cat([]byte{2, 0}, picks(40, 0)))
	// A single pending claimant, granted again and again.
	f.Add(uint8(15), []byte{2}, cat([]byte{3, 5}, picks(6, 0), []byte{3, 9}, picks(1, 1)))
	// A wrap: grant 6 of 8, then only 2 waits.
	f.Add(uint8(7), []byte{}, cat([]byte{3, 6}, picks(1, 0), []byte{3, 2}, picks(2, 0)))
	// n = 64: one full word, scans wrap at its end.
	f.Add(uint8(63), []byte{1, 4}, cat([]byte{2, 0}, picks(70, 1), []byte{2, 0}, picks(130, 0)))
	// n = 65: claimant 64 alone in the second word.
	f.Add(uint8(64), []byte{3}, cat([]byte{3, 64}, picks(2, 0), []byte{1, 0, 1, 63}, picks(5, 1),
		[]byte{2, 0}, picks(140, 0)))
	// Long pseudo-random scripts at claimant counts around the word
	// boundaries.
	for _, n := range []int{1, 2, 7, 16, 63, 64, 65, 127, 128, 129, 200} {
		rng := xorshift(0x9E3779B97F4A7C15 + uint64(n))
		weights, script := make([]byte, n), make([]byte, 20_000)
		for i := range weights {
			weights[i] = byte(rng.next())
		}
		for i := range script {
			script[i] = byte(rng.next())
		}
		f.Add(uint8(n-1), weights, script)
	}
	f.Fuzz(func(t *testing.T, size uint8, weights, script []byte) {
		n := 1 + int(size)%200
		checkPicks(t, n, weightsFrom(weights, n), script)
	})
}

// TestArbiterGrantBound checks the arbiters' fairness promises under
// churn. Claimants join at random and leave only when a grant empties
// their queue; from the moment a request reaches the head of its
// claimant's queue, round-robin grants the others at most n-1 times
// before granting it, and weighted round-robin at most the others'
// total weight. Fixed priority promises no bound. Each run opens
// with every claimant pending and no queue emptying, where each bound
// is reached exactly.
func TestArbiterGrantBound(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 64, 65, 130} {
		rng := xorshift(0x2545F4914F6CDD1D + uint64(n))
		weights := make([]int, n)
		total := 0
		for j := range weights {
			weights[j] = 1 + int(rng.next()%4)
			total += weights[j]
		}
		for _, tc := range []struct {
			a     Arbiter
			bound func(j int) int
		}{
			{NewRoundRobin(), func(int) int { return n - 1 }},
			{mustWRR(t, weights...), func(j int) int { return total - weights[j] }},
		} {
			t.Run(fmt.Sprintf("%s/%d", tc.a.Name(), n), func(t *testing.T) {
				pending := make([]bool, n)
				for j := range pending {
					pending[j] = true
				}
				waited := make([]int, n) // grants to others since j's head request arrived
				reached := false
				for step := range 40_000 {
					saturated := step < 3*total
					if !saturated {
						for range 1 + rng.next()%3 {
							pending[rng.next()%uint64(n)] = true
						}
					}
					g := tc.a.Pick(bitset(pending), n)
					if waited[g] > tc.bound(g) {
						t.Fatalf("step %d: claimant %d granted after %d grants to others, bound %d",
							step, g, waited[g], tc.bound(g))
					}
					reached = reached || waited[g] == tc.bound(g)
					for j, p := range pending {
						if p && j != g {
							waited[j]++
						}
					}
					waited[g] = 0
					if !saturated && rng.next()&1 == 0 {
						pending[g] = false
					}
				}
				if !reached {
					t.Fatal("no grant reached the bound; the saturated opening should")
				}
			})
		}
	}
}

// BenchmarkArbitrationRound measures one Pick through the Arbiter
// interface, the per-grant cost on the dispatch hot path. The -16 cases
// keep all 16 claimants pending, where every scan stops at its first
// slot. The -sparse cases cycle through a ring of pre-drawn patterns in
// which each of 16 or 64 claimants waits with probability 1/6, so a
// round-robin or fixed-priority scan probes about six slots per grant,
// as the benchmark workloads' round-robin scans do.
func BenchmarkArbitrationRound(b *testing.B) {
	wrr := func(n int) Arbiter {
		weights := make([]int, n)
		for i := range weights {
			weights[i] = 1 + i%4
		}
		return mustWRR(b, weights...)
	}
	const ring = 1024
	full := new([ring]uint64)
	for i := range full {
		full[i] = 1<<16 - 1
	}
	sparse := func(n int) *[ring]uint64 {
		rng := xorshift(0x9E3779B97F4A7C15)
		patterns := new([ring]uint64)
		for i := range patterns {
			for patterns[i] == 0 {
				for j := range n {
					if rng.next()%6 == 0 {
						patterns[i] |= 1 << j
					}
				}
			}
		}
		return patterns
	}
	benches := []struct {
		name     string
		a        Arbiter
		n        int
		patterns *[ring]uint64
	}{
		{"round-robin-16", NewRoundRobin(), 16, full},
		{"fixed-priority-16", NewFixedPriority(), 16, full},
		{"weighted-round-robin-16", wrr(16), 16, full},
		{"round-robin-16-sparse", NewRoundRobin(), 16, sparse(16)},
		{"fixed-priority-16-sparse", NewFixedPriority(), 16, sparse(16)},
		{"weighted-round-robin-16-sparse", wrr(16), 16, sparse(16)},
		{"round-robin-64-sparse", NewRoundRobin(), 64, sparse(64)},
		{"fixed-priority-64-sparse", NewFixedPriority(), 64, sparse(64)},
		{"weighted-round-robin-64-sparse", wrr(64), 64, sparse(64)},
	}
	for _, bb := range benches {
		b.Run(bb.name, func(b *testing.B) {
			a, n, patterns := bb.a, bb.n, bb.patterns
			for i := range b.N {
				k := i % ring
				a.Pick(patterns[k:k+1], n)
			}
		})
	}
}
