package trace

import (
	"math"
	"testing"
)

// TestDigestKnownAnswers pins the three response digests to literals, so a
// reordered, widened or dropped field in any of them fails here. Recorded
// traces carry these digests, and replay compares them bit-exactly: a
// silent layout change would make every committed trace unverifiable.
func TestDigestKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uint64
	}{
		{"query empty", DigestQuery(nil), 0xcbf29ce484222325},
		{"query", DigestQuery([]EccResult{
			{Node: 7, Ecc: 1.25, Farthest: 3},
			{Node: -2, Ecc: math.Pi, Farthest: 1 << 40},
		}), 0xd5f7b5fcb3f7b798},
		{"mutation", DigestMutation(0x0807060504030201, "incremental", 0.125), 0x91524c9e00e5fb32},
		{"mutation stale", DigestMutation(2, "stale", 0), 0x7110565be254d990},
		{"gen", DigestGen(1), 0x89cd31291d2aefa4},
		{"gen wide", DigestGen(0x0807060504030201), 0x7eb5108b368a78ed},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, tc.got, tc.want)
		}
	}
}
