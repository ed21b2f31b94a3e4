package hull

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// gramDist runs the Gram-form Frank–Wolfe distance of p to
// conv({pts[i] : i ∈ hullIdx}) and also returns the final iterate's weights.
func gramDist(pts [][]float64, hullIdx []int, p []float64, earlyStop float64, maxIters int) (ub, lb float64, covered bool, lam []float64) {
	g := newGram(pts, hullIdx[0], hullIdx[len(hullIdx)-1])
	g.extend(hullIdx)
	var f fw
	f.size(len(hullIdx), len(p))
	ub, lb, covered = f.distToHull(g, p, earlyStop, maxIters)
	return ub, lb, covered, f.lam
}

// Property: the Gram form takes the reference's steps, so on random clouds
// its bounds match the reference's to 1e-9 relative. Both forms compute
// squared distances with rounding of order ε_mach·D̂², which a square root
// near zero magnifies, so the comparison is on squared bounds and floored
// at the coverage scale (θ·D̂)².
func TestGramDistanceMatchesReference(t *testing.T) {
	const theta = 0.05
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(40)
		pts := fixtureCloud(1000+seed, 80, d, seed%2 == 0, 0)
		seeds, err := Approx(pts, Options{Theta: theta, Seed: seed, SkipRefine: true})
		if err != nil {
			t.Fatal(err)
		}
		floor := theta * theta * seeds.Diameter * seeds.Diameter
		agree := func(got, want float64) bool {
			return math.Abs(got*got-want*want) <= 1e-9*math.Max(want*want, floor)
		}
		ref := newRefFW(d)
		for i, p := range pts {
			wantUB, wantLB := ref.distToHull(pts, seeds.Vertices, p, 0, 300)
			ub, lb, _, _ := gramDist(pts, seeds.Vertices, p, 0, 300)
			if !agree(ub, wantUB) || !agree(lb, wantLB) {
				t.Fatalf("seed %d (d=%d) point %d: gram (ub, lb) = (%.17g, %.17g), reference (%.17g, %.17g)",
					seed, d, i, ub, lb, wantUB, wantLB)
			}
		}
	}
}

// Every point the Gram form declares covered must have a certificate that
// holds in R^d: its weights form a convex combination of hull vertices, and
// the point that combination names lies within θ·D̂ of p. The check runs on
// prefixes of the vertex list: refinement grows the hull through them.
func TestCoveredPointsHaveExactCertificates(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n, d     int
		mixEvery int
		theta    float64
	}{
		{21, 300, 6, 0, 0.05},
		{22, 150, 24, 5, 0.025},
	} {
		pts := fixtureCloud(tc.seed, tc.n, tc.d, true, tc.mixEvery)
		res, err := Approx(pts, Options{Theta: tc.theta, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		threshold := tc.theta * res.Diameter
		maxIters := int(math.Ceil(1 / (tc.theta * tc.theta)))
		checked := 0
		for l := 2; l <= len(res.Vertices); l += 1 + len(res.Vertices)/8 {
			hullIdx := res.Vertices[:l]
			for i, p := range pts {
				_, _, covered, lam := gramDist(pts, hullIdx, p, threshold, maxIters)
				if !covered {
					continue
				}
				checked++
				y := make([]float64, tc.d)
				sum := 0.0
				for a, w := range lam {
					if w < 0 {
						t.Fatalf("seed %d, l=%d, point %d: negative weight %g", tc.seed, l, i, w)
					}
					sum += w
					for j, x := range pts[hullIdx[a]] {
						y[j] += w * x
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("seed %d, l=%d, point %d: weights sum to %.17g", tc.seed, l, i, sum)
				}
				// The code under test forms y about a different origin, so
				// allow rounding at the scale of D̂ between the two.
				if dist := math.Sqrt(distSq(y, p)); dist > threshold+1e-12*res.Diameter {
					t.Fatalf("seed %d, l=%d, point %d: declared covered at distance %.17g > θ·D̂ = %.17g",
						tc.seed, l, i, dist, threshold)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("seed %d: no point was covered", tc.seed)
		}
	}
}

// The per-point Frank–Wolfe runs are spread over GOMAXPROCS workers; the
// Result must not depend on how many there are.
func TestApproxIndependentOfWorkerCount(t *testing.T) {
	var ka knownAnswer
	for _, ka = range knownAnswers {
		if ka.name == "multi-round-d8" {
			break
		}
	}
	pts := fixtureCloud(ka.seed, ka.n, ka.d, ka.shaped, ka.mixEvery)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := Approx(pts, ka.opt)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("GOMAXPROCS=%d: l=%d rounds=%d, GOMAXPROCS=1: l=%d rounds=%d",
				procs, len(res.Vertices), res.Rounds, len(first.Vertices), first.Rounds)
		}
	}
}

// Caps below three used to be overshot: both diameter endpoints went in
// unconditionally and seeding added a vertex before checking the cap. Caps
// of three and more keep their previous output.
func TestMaxVerticesSmallCaps(t *testing.T) {
	pts := fixtureCloud(14, 50, 3, false, 0)
	want := [][]int{
		1: {24},
		2: {24, 18},
		3: {24, 18, 22},
		4: {24, 18, 22, 5},
	}
	for c := 1; c <= 4; c++ {
		res, err := Approx(pts, Options{Theta: 0.05, Seed: 114, MaxVertices: c})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Vertices, want[c]) || res.Certified || res.Rounds != 0 {
			t.Errorf("cap %d: vertices %v certified=%v rounds=%d, want %v uncertified after 0 rounds",
				c, res.Vertices, res.Certified, res.Rounds, want[c])
		}
	}
}
