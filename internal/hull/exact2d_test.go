package hull

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExact2DSquare(t *testing.T) {
	pts := [][]float64{
		{0, 0}, {1, 0}, {1, 1}, {0, 1}, // corners
		{0.5, 0.5}, {0.25, 0.75}, // interior
		{0.5, 0}, // collinear boundary point (excluded: strict turns)
	}
	hull := Exact2D(pts)
	got := map[int]bool{}
	for _, i := range hull {
		got[i] = true
	}
	for corner := 0; corner < 4; corner++ {
		if !got[corner] {
			t.Fatalf("corner %d missing: %v", corner, hull)
		}
	}
	for _, inner := range []int{4, 5, 6} {
		if got[inner] {
			t.Fatalf("non-vertex %d included: %v", inner, hull)
		}
	}
}

func TestExact2DDegenerate(t *testing.T) {
	if h := Exact2D(nil); h != nil {
		t.Fatal("empty")
	}
	if h := Exact2D([][]float64{{3, 4}}); len(h) != 1 || h[0] != 0 {
		t.Fatalf("single point: %v", h)
	}
	// Two points.
	if h := Exact2D([][]float64{{0, 0}, {1, 1}}); len(h) != 2 {
		t.Fatalf("two points: %v", h)
	}
	// Collinear points: only the two extremes survive strict turns.
	h := Exact2D([][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(h) != 2 {
		t.Fatalf("collinear: %v", h)
	}
}

// Property: in 2-D, every vertex Approx returns is a point of S, and the
// exact hull vertices of the Approx output cover the exact hull of S within
// θ·D (the Lemma 5.3 coverage property checked against exact geometry).
func TestQuickApproxVsExact2D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + int(uint(seed)%40)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		theta := 0.05
		res, err := Approx(pts, Options{Theta: theta, Seed: seed})
		if err != nil || !res.Certified {
			return false
		}
		// Every exact hull vertex must be within θ·D of conv(Ŝ): verify by
		// exact point-to-polygon distance via the reference Frank–Wolfe on
		// the small set.
		exact := Exact2D(pts)
		ref := newRefFW(2)
		for _, v := range exact {
			ub, _ := ref.distToHull(pts, res.Vertices, pts[v], theta*res.Diameter, 4000)
			if ub > theta*res.Diameter+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// In 2-D with a generous hull budget, Approx typically recovers the exact
// vertex set of a clean convex polygon.
func TestApproxRecoversPolygonVertices(t *testing.T) {
	const k = 9
	pts := make([][]float64, 0, k+20)
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / k
		pts = append(pts, []float64{2 * math.Cos(a), 2 * math.Sin(a)})
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		r := rng.Float64() * 0.8
		a := rng.Float64() * 2 * math.Pi
		pts = append(pts, []float64{r * math.Cos(a), r * math.Sin(a)})
	}
	res, err := Approx(pts, Options{Theta: 0.01, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, v := range res.Vertices {
		got[v] = true
	}
	for i := 0; i < k; i++ {
		if !got[i] {
			t.Fatalf("polygon vertex %d missing from %v", i, res.Vertices)
		}
	}
	for i := k; i < len(pts); i++ {
		if got[i] {
			t.Fatalf("interior point %d on hull", i)
		}
	}
	exact := Exact2D(pts)
	if len(exact) != k {
		t.Fatalf("exact hull has %d vertices, want %d", len(exact), k)
	}
}

func TestBatchInsertOne(t *testing.T) {
	// BatchInsert=1 recovers the textbook one-at-a-time greedy and must
	// still certify.
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	res, err := Approx(pts, Options{Theta: 0.1, Seed: 9, BatchInsert: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatal("one-at-a-time refinement must certify")
	}
}
