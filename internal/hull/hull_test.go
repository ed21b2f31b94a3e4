package hull

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOptionsValidation(t *testing.T) {
	pts := [][]float64{{0, 0}}
	if _, err := Approx(pts, Options{Theta: 0}); err == nil {
		t.Fatal("theta 0 must fail")
	}
	if _, err := Approx(pts, Options{Theta: 1}); err == nil {
		t.Fatal("theta 1 must fail")
	}
	if _, err := Approx([][]float64{{}}, Options{Theta: 0.1}); err == nil {
		t.Fatal("zero-dim points must fail")
	}
	if _, err := Approx([][]float64{{1, 2}, {1}}, Options{Theta: 0.1}); err == nil {
		t.Fatal("ragged dims must fail")
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	res, err := Approx(nil, Options{Theta: 0.1})
	if err != nil || !res.Certified || len(res.Vertices) != 0 {
		t.Fatalf("empty: %+v err %v", res, err)
	}
	// All-coincident points: one representative, certified.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	res, err = Approx(pts, Options{Theta: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || len(res.Vertices) != 1 {
		t.Fatalf("coincident: %+v", res)
	}
}

// In 2-D, a square with interior points: the four corners must be found and
// no interior point may appear in Ŝ (corners are the only extreme points
// far from the hull of the others).
func TestSquareCorners(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, // corners
		{0.5, 0.5}, {0.3, 0.4}, {0.6, 0.2}, {0.5, 0.1}, // interior
	}
	res, err := Approx(pts, Options{Theta: 0.05, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatal("should certify")
	}
	got := map[int]bool{}
	for _, v := range res.Vertices {
		got[v] = true
	}
	for corner := 0; corner < 4; corner++ {
		if !got[corner] {
			t.Fatalf("corner %d missing from hull %v", corner, res.Vertices)
		}
	}
	for interior := 4; interior < 8; interior++ {
		if got[interior] {
			t.Fatalf("interior point %d wrongly on hull (vertices %v)", interior, res.Vertices)
		}
	}
}

// Farthest-point recovery: for points on a circle, the farthest point from
// any query must be (nearly) recovered by scanning Ŝ only.
func TestFarthestViaHull(t *testing.T) {
	const n = 200
	pts := make([][]float64, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / n
		pts[i] = []float64{math.Cos(a), math.Sin(a)}
	}
	theta := 0.02
	res, err := Approx(pts, Options{Theta: theta, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatal("circle should certify")
	}
	if len(res.Vertices) == n {
		t.Fatal("hull should prune at this theta")
	}
	for q := 0; q < n; q += 17 {
		// Exact farthest distance.
		exact := 0.0
		for j := range pts {
			if d := math.Sqrt(distSq(pts[q], pts[j])); d > exact {
				exact = d
			}
		}
		best := 0.0
		for _, j := range res.Vertices {
			if d := math.Sqrt(distSq(pts[q], pts[j])); d > best {
				best = d
			}
		}
		// Lemma 5.4: d(s,u) ≥ (1 − θD/d(s,v))·d(s,v) ≥ exact − θ·D.
		if best < exact-theta*res.Diameter-1e-12 {
			t.Fatalf("query %d: hull farthest %g, exact %g", q, best, exact)
		}
		if best > exact+1e-12 {
			t.Fatalf("hull farthest exceeded exact: %g > %g", best, exact)
		}
	}
}

// Property: in random gaussian clouds, every point is within θ·D̂ of the
// certified hull (the Lemma 5.3 coverage property), verified by the
// reference Frank–Wolfe against the returned vertex set.
func TestQuickCoverage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 60, 5
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			pts[i] = p
		}
		theta := 0.1
		res, err := Approx(pts, Options{Theta: theta, Seed: seed})
		if err != nil || !res.Certified {
			return false
		}
		ref := newRefFW(d)
		for i := range pts {
			// Frank–Wolfe's upper bound converges slowly, so the sound
			// re-verification is through the certified *lower* bound: if the
			// true distance were above θ·D̂, the dual gap would eventually
			// certify lb > θ·D̂.
			ub, lb := ref.distToHull(pts, res.Vertices, pts[i], 0, 4000)
			if lb > theta*res.Diameter+1e-9 || ub < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxVerticesCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	res, err := Approx(pts, Options{Theta: 0.01, Seed: 5, MaxVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vertices) > 4 {
		t.Fatalf("cap violated: %d vertices", len(res.Vertices))
	}
}

// Seeding without refinement (stages 0 and 1 alone) yields vertices but
// certifies nothing.
func TestSkipRefine(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 0}, {0, 1}, {0.2, 0.2}}
	res, _, _ := seedHull(pts, Options{Theta: 0.1, Seed: 2})
	if res.Certified {
		t.Fatal("seeding alone must not certify")
	}
	if len(res.Vertices) == 0 {
		t.Fatal("seeding should produce vertices")
	}
}

// Seeding draws every direction first and scores four per pass over the
// points on GOMAXPROCS workers. Each answer must be the one-direction
// reference scan's, for every direction, including on a cloud where every
// point appears twice, so each maximum is an exact tie that the lower index
// must win.
func TestSeedArgmaxesMatchReference(t *testing.T) {
	for _, d := range []int{1, 3, 4, 5, 128} {
		cloud := fixtureCloud(int64(20+d), 150, d, true, 0)
		for _, dup := range []bool{false, true} {
			pts := cloud
			if dup {
				pts = append(append([][]float64(nil), cloud...), cloud...)
			}
			for _, dirs := range []int{1, 3, 4, 5, 64} {
				seed := int64(100*d + dirs)
				got := seedArgmaxes(pts, dirs, seed)
				if len(got) != dirs {
					t.Fatalf("d=%d dirs=%d: %d answers", d, dirs, len(got))
				}
				rng := rand.New(rand.NewSource(seed))
				dir := make([]float64, d)
				for k := 0; k < dirs; k++ {
					for j := range dir {
						dir[j] = rng.NormFloat64()
					}
					want := argmaxDot(pts, dir)
					if got[k] != want {
						t.Errorf("d=%d dirs=%d dup=%v direction %d: argmax %d, reference %d", d, dirs, dup, k, got[k], want)
					}
					if dup && want >= len(cloud) {
						t.Errorf("d=%d dirs=%d direction %d: the reference broke a tie upward (%d)", d, dirs, k, want)
					}
				}
			}
		}
	}
}

// Rounding decides these two dot products: with every direction a positive
// multiple of (1,1,1), summing in coordinate order gives 0 for the first
// point and the multiple itself for the second, so the second wins. Summed
// from the last coordinate down, the two tie and the first would win.
func TestArgmaxDot4SummationOrder(t *testing.T) {
	pts := [][]float64{{1e16, 1, -1e16}, {1e16, -1e16, 1}}
	dir := []float64{1, 1, 1, 2, 2, 2, 0.5, 0.5, 0.5, 4, 4, 4}
	var arg [4]int
	argmaxDot4(pts, dir, &arg)
	for k := range arg {
		if want := argmaxDot(pts, dir[3*k:3*k+3]); arg[k] != want || want != 1 {
			t.Errorf("direction %d: argmax %d, reference %d, want 1", k, arg[k], want)
		}
	}
}

// Both Frank–Wolfe forms, the reference in R^d and the Gram form Approx
// runs, on a hull whose distances are known in closed form.
func TestFrankWolfeDistance(t *testing.T) {
	// Hull = segment [(0,0), (2,0)]; point (1,1) is at distance 1.
	pts := [][]float64{{0, 0}, {2, 0}, {1, 1}}
	ref := newRefFW(2)
	for _, form := range []struct {
		name string
		dist func(p []float64) (ub, lb float64)
	}{
		{"reference", func(p []float64) (float64, float64) { return ref.distToHull(pts, []int{0, 1}, p, 0, 500) }},
		{"gram", func(p []float64) (float64, float64) {
			ub, lb, _, _ := gramDist(pts, []int{0, 1}, p, 0, 500)
			return ub, lb
		}},
	} {
		ub, lb := form.dist(pts[2])
		if math.Abs(ub-1) > 1e-6 {
			t.Fatalf("%s: FW ub=%g, want 1", form.name, ub)
		}
		if lb > ub+1e-12 {
			t.Fatalf("%s: lb %g exceeds ub %g", form.name, lb, ub)
		}
		// Point inside the hull: distance 0.
		if ub, _ = form.dist([]float64{1, 0}); ub > 1e-6 {
			t.Fatalf("%s: interior point distance %g", form.name, ub)
		}
	}
}

// Rounding decides these squared distances: each point is 1, 1 and 1e8 away
// from p in some order, and the squares sum to 1e16+2 when both 1s come
// before the 1e16 but to 1e16 otherwise. Each of the four answers must be
// the one-point scan's, which sums in coordinate order.
func TestDistSq4SummationOrder(t *testing.T) {
	p := []float64{1, 1, 1}
	q := [4][]float64{{2, 2, 1e8 + 1}, {1e8 + 1, 2, 2}, {2, 1e8 + 1, 0}, {0, 0, 1e8 + 1}}
	want := [4]float64{1e16 + 2, 1e16, 1e16, 1e16 + 2}
	var got [4]float64
	got[0], got[1], got[2], got[3] = distSq4(p, q[0], q[1], q[2], q[3])
	for k := range got {
		if ref := distSq(q[k], p); math.Float64bits(got[k]) != math.Float64bits(ref) || ref != want[k] {
			t.Errorf("point %d: distSq4 %.17g, distSq %.17g, want %.17g", k, got[k], ref, want[k])
		}
	}
}
