package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"resistecc/internal/graph"
)

func TestLaplacianDense(t *testing.T) {
	g := graph.Star(4)
	l := LaplacianDense(g)
	if l.At(0, 0) != 3 || l.At(1, 1) != 1 || l.At(0, 1) != -1 || l.At(1, 2) != 0 {
		t.Fatalf("Laplacian wrong: %+v", l)
	}
	// Row sums zero.
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j < 4; j++ {
			s += l.At(i, j)
		}
		if s != 0 {
			t.Fatalf("row %d sum %g", i, s)
		}
	}
}

func TestPseudoinverseProperties(t *testing.T) {
	g := graph.Cycle(7)
	lp, err := Pseudoinverse(g)
	if err != nil {
		t.Fatal(err)
	}
	l := LaplacianDense(g)
	n := g.N()
	// L·L†·L = L (Moore–Penrose), checked entrywise through products.
	tmp := NewDense(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += l.At(i, k) * lp.At(k, j)
			}
			tmp.Set(i, j, s)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += tmp.At(i, k) * l.At(k, j)
			}
			if !almostEq(s, l.At(i, j), 1e-9) {
				t.Fatalf("LL†L != L at (%d,%d): %g vs %g", i, j, s, l.At(i, j))
			}
		}
	}
	// L† rows sum to zero (null space of L).
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += lp.At(i, j)
		}
		if !almostEq(s, 0, 1e-10) {
			t.Fatalf("L† row %d sum %g", i, s)
		}
	}
}

func TestPseudoinverseDisconnected(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Pseudoinverse(g); err == nil {
		t.Fatal("disconnected graph must be rejected")
	}
}

func TestResistanceClosedForms(t *testing.T) {
	// Path: r(i,j) = |i−j|.
	p := graph.Path(6)
	lp, err := Pseudoinverse(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := math.Abs(float64(i - j))
			if !almostEq(Resistance(lp, i, j), want, 1e-9) {
				t.Fatalf("path r(%d,%d)=%g, want %g", i, j, Resistance(lp, i, j), want)
			}
		}
	}
	// Cycle of length L: r(u,v) = k(L−k)/L for hop distance k.
	const L = 9
	c := graph.Cycle(L)
	lpc, err := Pseudoinverse(c)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < L; k++ {
		want := float64(k*(L-k)) / L
		if !almostEq(Resistance(lpc, 0, k), want, 1e-9) {
			t.Fatalf("cycle r(0,%d)=%g, want %g", k, Resistance(lpc, 0, k), want)
		}
	}
	// Complete graph: r = 2/n for all pairs.
	kn := graph.Complete(8)
	lpk, err := Pseudoinverse(kn)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(Resistance(lpk, 2, 5), 0.25, 1e-9) {
		t.Fatalf("K8 r=%g, want 0.25", Resistance(lpk, 2, 5))
	}
	// Star: hub-leaf 1, leaf-leaf 2.
	st := graph.Star(10)
	lps, err := Pseudoinverse(st)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(Resistance(lps, 0, 3), 1, 1e-9) || !almostEq(Resistance(lps, 2, 7), 2, 1e-9) {
		t.Fatal("star resistances wrong")
	}
}

// Foster's theorem: Σ_{(u,v) ∈ E} r(u,v) = n − 1 for any connected graph.
func TestQuickFoster(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.BarabasiAlbert(40, 2, seed)
		lp, err := Pseudoinverse(g)
		if err != nil {
			return false
		}
		sum := 0.0
		g.EachEdge(func(u, v int) bool {
			sum += Resistance(lp, u, v)
			return true
		})
		return almostEq(sum, float64(g.N()-1), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Resistance distance is a metric: triangle inequality on random graphs.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64, a, b, c uint8) bool {
		g := graph.BarabasiAlbert(25, 2, seed)
		lp, err := Pseudoinverse(g)
		if err != nil {
			return false
		}
		x, y, z := int(a)%25, int(b)%25, int(c)%25
		rxy := Resistance(lp, x, y)
		ryz := Resistance(lp, y, z)
		rxz := Resistance(lp, x, z)
		return rxz <= rxy+ryz+1e-9 && rxy >= -1e-12 && almostEq(rxy, Resistance(lp, y, x), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePinvMatchesRecompute(t *testing.T) {
	g := graph.Path(8)
	lp, err := Pseudoinverse(g)
	if err != nil {
		t.Fatal(err)
	}
	AddEdgePinv(lp, 0, 7) // close the cycle
	cyc := graph.Cycle(8)
	want, err := Pseudoinverse(cyc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !almostEq(lp.At(i, j), want.At(i, j), 1e-9) {
				t.Fatalf("updated L†(%d,%d)=%g, want %g", i, j, lp.At(i, j), want.At(i, j))
			}
		}
	}
}

// Property: Sherman–Morrison update equals recomputation for random edges.
func TestQuickShermanMorrison(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.BarabasiAlbert(20, 2, seed)
		u, v := int(a)%20, int(b)%20
		if u == v || g.HasEdge(u, v) {
			return true
		}
		lp, err := Pseudoinverse(g)
		if err != nil {
			return false
		}
		AddEdgePinv(lp, u, v)
		if err := g.AddEdge(u, v); err != nil {
			return false
		}
		want, err := Pseudoinverse(g)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				if !almostEq(lp.At(i, j), want.At(i, j), 1e-8) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Rayleigh monotonicity: adding an edge never increases any resistance.
func TestQuickRayleighMonotonicity(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.BarabasiAlbert(18, 2, seed)
		u, v := int(a)%18, int(b)%18
		if u == v || g.HasEdge(u, v) {
			return true
		}
		lp, err := Pseudoinverse(g)
		if err != nil {
			return false
		}
		before := NewDense(18)
		for i := 0; i < 18; i++ {
			for j := 0; j < 18; j++ {
				before.Set(i, j, Resistance(lp, i, j))
			}
		}
		AddEdgePinv(lp, u, v)
		for i := 0; i < 18; i++ {
			for j := 0; j < 18; j++ {
				if Resistance(lp, i, j) > before.At(i, j)+1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEccentricityFromPinv(t *testing.T) {
	// Figure 1(a): path with 2n nodes (0-indexed node i has
	// c = max(i, 2n−1−i)).
	const twoN = 8
	g := graph.Path(twoN)
	lp, err := Pseudoinverse(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < twoN; i++ {
		c, far := EccentricityFromPinv(lp, i)
		want := math.Max(float64(i), float64(twoN-1-i))
		if !almostEq(c, want, 1e-9) {
			t.Fatalf("path c(%d)=%g, want %g", i, c, want)
		}
		if far != 0 && far != twoN-1 {
			t.Fatalf("farthest from %d should be an endpoint, got %d", i, far)
		}
	}
}
