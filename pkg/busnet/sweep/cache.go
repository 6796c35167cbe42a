package sweep

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/busnet/busnet/pkg/busnet"
)

// Key identifies one simulation job for caching: the canonical hash of
// the operating point (the config with its identity fields zeroed) plus
// the (seed, stream) pair that picks the realization. The engine is
// bit-reproducible in exactly this triple — equal keys mean equal
// Results to the last bit — so a Key is not an approximation of a job,
// it IS the job, and a cache lookup is as correct as a rerun.
type Key struct {
	ConfigHash string
	Seed       int64
	Stream     uint64
}

// KeyFor defines a job's cache key: the hash of the exact config the
// simulator would evaluate, plus its seed and stream (Stream already
// carrying any replication offset). A sweep hashes each point once and
// builds its replications' keys from that hash; those keys equal KeyFor
// of each job's config. It errors only when the config does not
// marshal — unknown kind names, which Validate rejects on every
// execution path first.
func KeyFor(cfg busnet.Config) (Key, error) {
	k := Key{Seed: cfg.Seed, Stream: cfg.Stream}
	cfg.Seed, cfg.Stream = 0, 0
	hash, err := cfg.Hash()
	if err != nil {
		return Key{}, err
	}
	k.ConfigHash = hash
	return k, nil
}

// Cache is an in-process, concurrency-safe store of finished simulation
// jobs, keyed on the deterministic (config-hash, seed, stream) triple.
// Attach one to Spec.Cache and repeated jobs across sweeps — an
// optimizer re-racing survivors at escalated replication counts, a
// service re-answering a spec it has seen — cost a map lookup instead
// of a simulation, with bit-identical output either way (warm and cold
// runs reduce the same Results values).
//
// A sweep stores the Results its job simulated by pointer and its
// reductions read that entry in place, so an entry costs one pointer
// beyond the Results the job allocated anyway. Results leave the
// sweep only as copies (Spec.KeepRuns), so no caller edit changes what
// a later sweep returns.
//
// Entries are never evicted: the intended lifetime is one process.
// Hits and Misses expose the running effectiveness counts; Misses is
// also the number of simulations actually executed through the cache,
// which the optimizer reports as its DES-job spend.
//
// Hits and Misses read zero on a nil cache.
type Cache struct {
	mu     sync.RWMutex
	m      map[Key]*busnet.Results
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]*busnet.Results)}
}

// get returns the cached Results for k, counting a hit or miss. The
// sweep's jobs read the entry in place and never write through it.
func (c *Cache) get(k Key) (*busnet.Results, bool) {
	c.mu.RLock()
	res, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return res, ok
}

// put stores res itself: the sweep hands over the Results its job just
// simulated, which nothing outside the sweep can reach.
func (c *Cache) put(k Key, res *busnet.Results) {
	c.mu.Lock()
	c.m[k] = res
	c.mu.Unlock()
}

// detach returns a copy of r that shares no mutable part with it:
// Grants, BusUtilization, Diagnostics and the quantile blocks are
// copied, nil staying nil. The histograms stay shared; they are
// read-only snapshots once a run has finished.
func detach(r *busnet.Results) busnet.Results {
	c := *r
	c.Grants = slices.Clone(r.Grants)
	c.BusUtilization = slices.Clone(r.BusUtilization)
	c.Diagnostics = clonePtr(r.Diagnostics)
	c.WaitQuantiles = clonePtr(r.WaitQuantiles)
	c.ResponseQuantiles = clonePtr(r.ResponseQuantiles)
	return c
}

// clonePtr returns a pointer to a copy of *p, or nil for nil.
func clonePtr[T any](p *T) *T {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

// Hits returns the lifetime hit count.
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns the lifetime miss count — with every job routed
// through the cache, the number of simulations it could not absorb.
func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}
