package sim

import "math/rand/v2"

// RNG is the seeded random-variate source injected into every model.
// Each simulation run owns exactly one RNG, so draws happen in a
// deterministic order; independent runs of the same experiment use
// substreams of a shared seed (NewRNGStream) instead of ad-hoc reseeding,
// which keeps replications statistically independent while the whole
// experiment stays reproducible from a single seed.
//
// The hot draws, Exp and Uniform, run on the concrete PCG, so its Uint64
// inlines; Intn goes through a rand.Rand over the same generator. Every
// draw equals the same draw of rand.New(rand.NewPCG(...)) on the same
// state. An RNG is used through its pointer and never copied: r points
// into it.
type RNG struct {
	pcg rand.PCG
	r   *rand.Rand // over &pcg, for Intn
}

// NewRNG returns a source seeded deterministically from seed; it is
// stream 0 of that seed.
func NewRNG(seed int64) *RNG { return NewRNGStream(seed, 0) }

// NewRNGStream returns substream stream of the given seed. Streams of one
// seed are statistically independent PCG generators: seed and stream are
// each expanded through SplitMix64 before being combined into the 128-bit
// PCG state, so nearby stream ids (0, 1, 2, …) land in unrelated regions
// of the state space. SplitMix64 is bijective and hi pins down the seed,
// so distinct (seed, stream) pairs always map to distinct PCG states —
// no seed/stream aliasing. Equal pairs yield identical draw sequences.
func NewRNGStream(seed int64, stream uint64) *RNG {
	g := new(RNG)
	g.pcg.Seed(streamState(seed, stream))
	g.r = rand.New(&g.pcg)
	return g
}

// Reseed moves g to substream stream of seed in place: every later draw
// equals the same draw on NewRNGStream(seed, stream), and nothing is
// allocated.
func (g *RNG) Reseed(seed int64, stream uint64) { g.pcg.Seed(streamState(seed, stream)) }

// streamState is the PCG state of substream stream of seed.
func streamState(seed int64, stream uint64) (hi, lo uint64) {
	hi = splitmix64(uint64(seed))
	return hi, splitmix64(hi ^ splitmix64(stream))
}

// splitmix64 is the standard 64-bit seed expander (Steele et al.); a
// single step diffuses every input bit across the output word.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Exp draws an exponential variate with the given rate (mean 1/rate).
func (g *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exp rate must be positive")
	}
	return g.expFloat64() / rate
}

// Uniform draws from [0, 1): Rand.Float64's formula, the top 53 bits of
// one word over 2⁵³.
func (g *RNG) Uniform() float64 { return float64(g.pcg.Uint64()<<11>>11) / (1 << 53) }

// Intn draws a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }
