package sweep

import (
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

// KeyFor derives a job's cache key from the exact config the simulator
// would evaluate (Stream already carrying any replication offset). It
// errors only when the config does not marshal — unknown kind names,
// which Validate rejects on every execution path first.
// KeyFor defines a job's key: a sweep hashes each point once and builds
// its replications' keys from that hash, and those keys equal KeyFor of
// each job's config (see Jobs).
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
// Entries are never evicted: a Results value is a few hundred bytes
// plus optional histograms, and the intended lifetime is one process.
// Hits and Misses expose the running effectiveness counts; Misses is
// also the number of simulations actually executed through the cache,
// which the optimizer reports as its DES-job spend.
//
// All methods are nil-safe no-ops (Get always misses, without counting)
// so execution paths consult the cache unconditionally.
type Cache struct {
	mu     sync.RWMutex
	m      map[Key]busnet.Results
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[Key]busnet.Results)}
}

// Get returns the cached Results for k, counting a hit or miss.
func (c *Cache) Get(k Key) (busnet.Results, bool) {
	if c == nil {
		return busnet.Results{}, false
	}
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

// Put stores a finished job's Results under k. The value is stored as
// given — callers warming a cache from an external source (a persisted
// result store, a peer shard) may insert Results without Diagnostics or
// histograms, and reductions honor their absence.
func (c *Cache) Put(k Key, res busnet.Results) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[k] = res
	c.mu.Unlock()
}

// Len returns the number of cached jobs.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Hits returns the lifetime hit count.
func (c *Cache) Hits() uint64 {
	if c == nil {
		return 0
	}
	return c.hits.Load()
}

// Misses returns the lifetime miss count — with every job routed
// through Get, the number of simulations the cache could not absorb.
func (c *Cache) Misses() uint64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}
