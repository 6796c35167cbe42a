package sweep

import "github.com/busnet/busnet/pkg/busnet"

// Key identifies one simulation job: the canonical hash of the
// operating point (the config with its identity fields zeroed) plus the
// (seed, stream) pair that picks the realization. The engine is
// bit-reproducible in exactly this triple — equal keys mean equal
// Results to the last bit — so a Key is not an approximation of a job,
// it IS the job.
type Key struct {
	ConfigHash string
	Seed       int64
	Stream     uint64
}

// KeyFor defines a job's key: the hash of the exact config the
// simulator would evaluate, plus its seed and stream (Stream already
// carrying any replication offset). It errors only when the config does
// not marshal — unknown kind names, which Validate rejects on every
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
