//recclint:deterministic — digests must hash identical responses to identical bits.

package trace

import "math"

// Response digests are 64-bit FNV-1a over the semantic content of the
// response, with float64 values hashed by their IEEE-754 bits. "Semantic"
// means the fields a bit-exact replay must reproduce — node ids, eccentricity
// bits, witness ids, mutation mode and drift — not the JSON framing, so the
// same digest can be computed from a live handler's values, a replayed
// DynamicIndex, or a parsed HTTP response body.
//
// A zero digest means "unverified": generated traces carry load but no
// expected answers, and replay skips their comparison. (FNV of real content
// hitting exactly 0 is a 2⁻⁶⁴ event; the convention costs nothing.)
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type digest uint64

func newDigest() digest { return fnvOffset }

func (d digest) u64(x uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(x >> (8 * i)))
		d *= fnvPrime
	}
	return d
}

func (d digest) i64(x int64) digest   { return d.u64(uint64(x)) }
func (d digest) f64(x float64) digest { return d.u64(math.Float64bits(x)) }
func (d digest) str(s string) digest {
	for i := 0; i < len(s); i++ {
		d ^= digest(s[i])
		d *= fnvPrime
	}
	return d
}

// EccResult is one eccentricity answer in external ids, the unit query
// digests are computed over.
type EccResult struct {
	Node     int64
	Ecc      float64
	Farthest int64
}

// DigestQuery hashes a query response: every answered node, its
// eccentricity bits and its farthest-witness id, in response order.
func DigestQuery(res []EccResult) uint64 {
	d := newDigest()
	for _, r := range res {
		d = d.i64(r.Node).f64(r.Ecc).i64(r.Farthest)
	}
	return uint64(d)
}

// DigestMutation hashes a mutation response: the generation now serving it,
// how it was absorbed (incremental vs stale), and the accumulated drift
// bound — the fields that must match bit-exactly when the same mutation
// sequence is replayed against a same-seed index.
func DigestMutation(gen uint64, mode string, drift float64) uint64 {
	return uint64(newDigest().u64(gen).str(mode).f64(drift))
}

// DigestGen hashes a bare generation number, the verification unit for
// rebuild and checkpoint records (their other response fields — wall-clock
// durations, snapshot ages — are not deterministic and excluded by design).
func DigestGen(gen uint64) uint64 {
	return uint64(newDigest().u64(gen))
}
