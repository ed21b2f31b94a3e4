package sketch

import (
	"context"
	"testing"

	"resistecc/internal/graph"
)

func batchTestSketch(t *testing.T, n int) *Sketch {
	t.Helper()
	g := graph.BarabasiAlbert(n, 3, 11)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// TestEccentricityBatchBitIdentical pins the tentpole contract: the 4-wide
// blocked kernel must produce bit-identical values AND witnesses to the
// serial per-source scan, for every batch length (full tiles, remainders,
// empty), including sources that are themselves candidates. The boundary
// case scans an unsorted candidate list against EccentricityOver; the
// all-nodes case scans V in node order, APPROXQUERY's candidate set,
// against the full scan Eccentricity.
func TestEccentricityBatchBitIdentical(t *testing.T) {
	sk := batchTestSketch(t, 120)
	boundary := []int{0, 7, 13, 42, 87, 119, 3, 55} // unsorted, includes sources below
	all := make([]int, sk.N)
	for v := range all {
		all[v] = v
	}
	cases := []struct {
		name string
		cand []int
		want func(src int) (float64, int)
	}{
		{"boundary", boundary, func(src int) (float64, int) { return sk.EccentricityOver(src, boundary) }},
		{"all-nodes", all, sk.Eccentricity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 31} {
				srcs := make([]int, size)
				for i := range srcs {
					srcs[i] = (i*37 + 7) % sk.N
				}
				// Make some sources members of the boundary list so the
				// v==src skip is exercised in every lane position.
				for i := range srcs {
					if i%3 == 0 && i < len(boundary) {
						srcs[i] = boundary[i]
					}
				}
				ecc := make([]float64, size)
				arg := make([]int, size)
				sk.EccentricityBatch(srcs, tc.cand, ecc, arg)
				for i, s := range srcs {
					wantE, wantA := tc.want(s)
					if ecc[i] != wantE || arg[i] != wantA {
						t.Fatalf("size %d src %d: batch (%v,%d) != serial (%v,%d)",
							size, s, ecc[i], arg[i], wantE, wantA)
					}
				}
			}
		})
	}
}

// TestEccentricityBatchEmptyCandidates: no admissible candidate must yield
// (0, src), exactly like EccentricityOver.
func TestEccentricityBatchEmptyCandidates(t *testing.T) {
	sk := batchTestSketch(t, 16)
	srcs := []int{0, 1, 2, 3, 4} // one full tile + remainder
	ecc := make([]float64, len(srcs))
	arg := make([]int, len(srcs))
	sk.EccentricityBatch(srcs, nil, ecc, arg)
	for i, s := range srcs {
		if ecc[i] != 0 || arg[i] != s {
			t.Fatalf("src %d: got (%v,%d), want (0,%d)", s, ecc[i], arg[i], s)
		}
	}
	// A candidate list of only the source itself is equally inadmissible.
	sk.EccentricityBatch([]int{5, 5, 5, 5}, []int{5}, ecc[:4], arg[:4])
	for i := 0; i < 4; i++ {
		if ecc[i] != 0 || arg[i] != 5 {
			t.Fatalf("self-only cand: got (%v,%d), want (0,5)", ecc[i], arg[i])
		}
	}
}

// TestEccentricityBatchDuplicateSources: the kernel itself must tolerate the
// same source in several lanes of one tile (the dedup layer above normally
// removes them, but the kernel contract does not require it).
func TestEccentricityBatchDuplicateSources(t *testing.T) {
	sk := batchTestSketch(t, 50)
	cand := []int{1, 9, 20, 33, 49}
	srcs := []int{4, 4, 4, 4, 4}
	ecc := make([]float64, len(srcs))
	arg := make([]int, len(srcs))
	sk.EccentricityBatch(srcs, cand, ecc, arg)
	wantE, wantA := sk.EccentricityOver(4, cand)
	for i := range srcs {
		if ecc[i] != wantE || arg[i] != wantA {
			t.Fatalf("lane %d: got (%v,%d), want (%v,%d)", i, ecc[i], arg[i], wantE, wantA)
		}
	}
}
