package busnet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// CanonicalHash fingerprints any JSON-marshalable value as the sha256
// of its canonical JSON encoding — struct fields in declaration order,
// map keys sorted, no insignificant whitespace — rendered as lowercase
// hex. Two values hash equal exactly when their JSON forms are byte
// equal, which for the package's value types (Config, Topology, kind
// enums) means "the same operating point": marshaling canonicalizes
// the empty-string kind defaults, so spellings that mean the same
// thing collide deliberately. It errors only when v does not marshal
// (e.g. an unknown kind name, which the enums reject at encode time).
func CanonicalHash(v any) (string, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Hash is the config's canonical fingerprint: CanonicalHash of the
// Normalized value, so literals, JSON, and CLI spellings of one
// operating point all hash identically. The hash covers every field —
// including Seed and Stream, which select the exact realization — and
// the engine is bit-reproducible in all of them, so equal hashes mean
// equal Results to the last bit. Consumers that want the operating
// point alone (sweep.KeyFor's (config-hash, seed, stream) job key) zero
// the identity fields before hashing.
func (c Config) Hash() (string, error) {
	return CanonicalHash(c.Normalized())
}
