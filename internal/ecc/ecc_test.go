package ecc

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/sketch"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestSimpleGraphsLine encodes Figure 1(a): the line graph with 2n nodes has
// c(v_i) = 2n−i for i ≤ n and i−1 for i > n (1-indexed), with exactly two
// resistance-central nodes.
func TestSimpleGraphsLine(t *testing.T) {
	const n = 5 // 2n = 10 nodes
	g := graph.Path(2 * n)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	for i1 := 1; i1 <= 2*n; i1++ { // paper's 1-indexed node i1
		want := float64(i1 - 1)
		if i1 <= n {
			want = float64(2*n - i1)
		}
		got := ex.Eccentricity(i1 - 1)
		if !almostEq(got.Ecc, want, 1e-9) {
			t.Fatalf("line c(v_%d)=%g, want %g", i1, got.Ecc, want)
		}
	}
	sum := Summarize(ex.Distribution())
	if !almostEq(sum.Radius, float64(n), 1e-9) || !almostEq(sum.Diameter, float64(2*n-1), 1e-9) {
		t.Fatalf("line φ=%g R=%g", sum.Radius, sum.Diameter)
	}
	if len(sum.Center) != 2 {
		t.Fatalf("line should have 2 central nodes, got %v", sum.Center)
	}
}

// TestSimpleGraphsCycle encodes Figure 1(b): the cycle with 2n nodes has
// c(v) = n/2 for every node; all nodes are central.
func TestSimpleGraphsCycle(t *testing.T) {
	const n = 6 // 2n = 12 nodes
	g := graph.Cycle(2 * n)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	dist := ex.Distribution()
	for v, c := range dist {
		if !almostEq(c, float64(n)/2, 1e-9) {
			t.Fatalf("cycle c(%d)=%g, want %g", v, c, float64(n)/2)
		}
	}
	sum := Summarize(dist)
	if len(sum.Center) != 2*n {
		t.Fatalf("all %d cycle nodes central, got %d", 2*n, len(sum.Center))
	}
	if !almostEq(sum.Radius, sum.Diameter, 1e-12) {
		t.Fatal("cycle has φ = R")
	}
}

// TestSimpleGraphsStar encodes Figure 1(c): hub c=1, leaves c=2; φ=1, R=2,
// one central node.
func TestSimpleGraphsStar(t *testing.T) {
	g := graph.Star(12)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	dist := ex.Distribution()
	if !almostEq(dist[0], 1, 1e-9) {
		t.Fatalf("hub c=%g", dist[0])
	}
	for v := 1; v < 12; v++ {
		if !almostEq(dist[v], 2, 1e-9) {
			t.Fatalf("leaf c=%g", dist[v])
		}
	}
	sum := Summarize(dist)
	if !almostEq(sum.Radius, 1, 1e-9) || !almostEq(sum.Diameter, 2, 1e-9) || len(sum.Center) != 1 || sum.Center[0] != 0 {
		t.Fatalf("star summary %+v", sum)
	}
}

func TestExactQueryBatch(t *testing.T) {
	g := graph.Lollipop(5, 3)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	vals := ex.Query([]int{0, 7})
	if len(vals) != 2 || vals[0].Node != 0 || vals[1].Node != 7 {
		t.Fatalf("query batch %v", vals)
	}
	// The path tip (7) has the largest eccentricity in a lollipop.
	if vals[1].Ecc <= vals[0].Ecc {
		t.Fatal("tip should have larger eccentricity than clique node")
	}
	if vals[0].Farthest != 7 {
		t.Fatalf("farthest from clique is the tip, got %d", vals[0].Farthest)
	}
}

func TestExactDisconnected(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExact(g); err == nil {
		t.Fatal("disconnected graph must fail")
	}
}

func TestApproxQueryTracksExact(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 11)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewApproxContext(context.Background(), g, sketch.Options{Epsilon: 0.3, Dim: 800, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exD := ex.Distribution()
	apD := ap.Distribution()
	sigma, err := RelativeError(apD, exD)
	if err != nil {
		t.Fatal(err)
	}
	// At d=800 the per-pair JL noise is ≈ √(2/d) ≈ 5%, and the max in the
	// eccentricity adds an upward selection bias of a couple of sigmas.
	if sigma > 0.12 {
		t.Fatalf("APPROXQUERY mean relative error %.3f too large", sigma)
	}
	v := ap.Eccentricity(5)
	if v.Node != 5 || v.Ecc <= 0 {
		t.Fatalf("bad value %+v", v)
	}
	if got := ap.Query([]int{1, 2}); len(got) != 2 {
		t.Fatal("batch query")
	}
}

func TestFastQueryTheorem56(t *testing.T) {
	// Theorem 5.6: (1−ε)c(t) ≤ ĉ(t) ≤ (1+ε)c(t) for every node.
	g := graph.BarabasiAlbert(150, 3, 23)
	const eps = 0.3
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFastContext(context.Background(), g, FastOptions{Sketch: sketch.Options{Epsilon: eps, Dim: 300, Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	if f.L() == 0 || f.L() > g.N() {
		t.Fatalf("hull size %d", f.L())
	}
	exD := ex.Distribution()
	fD := f.Distribution()
	for v := range exD {
		if fD[v] < (1-eps)*exD[v] || fD[v] > (1+eps)*exD[v] {
			t.Fatalf("node %d: ĉ=%g outside (1±ε)·c=%g", v, fD[v], exD[v])
		}
	}
}

// TestFastQueryPrunesLongPath: certified hull pruning requires the point-set
// diameter D to dominate local separations (θ·D above the vertex-to-face
// distances of core nodes), which is the large-network regime of §V-C.
// The 1200-node path has D = √1199 ≈ 35, so θ·D ≈ 0.87 exceeds the ≈ 0.71
// displacement of interior path nodes and the certified hull keeps only a
// subsampled boundary.
func TestFastQueryPrunesLongPath(t *testing.T) {
	n := 1200
	g := graph.Path(n)
	f, err := NewFastContext(context.Background(), g, FastOptions{Sketch: sketch.Options{Epsilon: 0.3, Dim: 96, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if f.L() >= n/2 {
		t.Fatalf("hull boundary %d of %d: no certified pruning", f.L(), n)
	}
	// Endpoint eccentricities stay accurate: c(0) = n−1.
	got := f.Eccentricity(0).Ecc
	if math.Abs(got-float64(n-1))/float64(n-1) > 0.3 {
		t.Fatalf("path endpoint ĉ=%g, want ≈%d", got, n-1)
	}
}

// TestFastQueryCappedHull exercises the practical capped mode used by the
// experiment harness on small graphs: directional extremes alone (uncapped
// certification skipped once the cap binds) still recover eccentricities to
// within the sketch noise on scale-free graphs.
func TestFastQueryCappedHull(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 23)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFastContext(context.Background(), g, FastOptions{
		Sketch: sketch.Options{Epsilon: 0.3, Dim: 300, Seed: 23},
		Hull:   hull.Options{Theta: 0.3 / 12, MaxVertices: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.L() > 32 {
		t.Fatalf("cap violated: l=%d", f.L())
	}
	exD := ex.Distribution()
	fD := f.Distribution()
	sigma, err := RelativeError(fD, exD)
	if err != nil {
		t.Fatal(err)
	}
	if sigma > 0.25 {
		t.Fatalf("capped-hull relative error %.3f", sigma)
	}
}

func TestFastQueryBatchAndDefaults(t *testing.T) {
	g := graph.Lollipop(8, 5)
	f, err := NewFastContext(context.Background(), g, FastOptions{
		Sketch: sketch.Options{Epsilon: 0.25, Dim: 128, Seed: 5},
		Hull:   hull.Options{Theta: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := f.Query([]int{0, 12})
	if len(vals) != 2 {
		t.Fatal("batch")
	}
	// Farthest from clique node 0 must be the path tip (node 12).
	if vals[0].Farthest != 12 {
		t.Fatalf("farthest=%d, want 12", vals[0].Farthest)
	}
}

func TestApproxRecc(t *testing.T) {
	g := graph.Path(20)
	c, err := ApproxRecc(context.Background(), g, 0, sketch.Options{Epsilon: 0.3, Dim: 256, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-19)/19 > 0.3 {
		t.Fatalf("ApproxRecc(path end)=%g, want ≈19", c)
	}
	if _, err := ApproxRecc(context.Background(), g, 0, sketch.Options{}); err == nil {
		t.Fatal("invalid sketch options must fail")
	}
}

func TestSummarizeShape(t *testing.T) {
	s := Summarize(nil)
	if s.Radius != 0 && !math.IsInf(s.Radius, 1) {
		t.Fatalf("empty summary %+v", s)
	}
	// Right-skewed sample has positive skewness.
	sample := []float64{1, 1, 1, 1, 1.1, 1.2, 5}
	s = Summarize(sample)
	if s.Skewness <= 0 {
		t.Fatalf("skewness %g, want > 0", s.Skewness)
	}
	if s.Radius != 1 || s.Diameter != 5 {
		t.Fatalf("summary %+v", s)
	}
}

func TestRelativeErrorEdgeCases(t *testing.T) {
	if _, err := RelativeError([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch")
	}
	if _, err := RelativeError([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero exact value")
	}
	sigma, err := RelativeError([]float64{1.1, 0.9}, []float64{1, 1})
	if err != nil || !almostEq(sigma, 0.1, 1e-12) {
		t.Fatalf("sigma %g err %v", sigma, err)
	}
	sigma, err = RelativeError(nil, nil)
	if err != nil || sigma != 0 {
		t.Fatal("empty distributions")
	}
}

// Property: on random scale-free graphs FASTQUERY's ĉ never exceeds
// APPROXQUERY's c̄ (the hull scan is a restriction) and recovers at least
// (1−ε/3) of it (Lemma 5.5).
func TestQuickFastLeqApprox(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.BarabasiAlbert(60, 2, seed)
		opt := sketch.Options{Epsilon: 0.3, Dim: 120, Seed: seed}
		fast, err := NewFastContext(context.Background(), g, FastOptions{Sketch: opt})
		if err != nil {
			return false
		}
		// Reuse the same sketch points: c̄ from a full scan of fast.Sk.
		for v := 0; v < g.N(); v += 7 {
			cbar, _ := fast.Sk.Eccentricity(v)
			chat := fast.Eccentricity(v).Ecc
			if chat > cbar+1e-12 {
				return false
			}
			if chat < (1-0.3/3)*cbar-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestFastDiameter(t *testing.T) {
	g := graph.Path(40)
	f, err := NewFastContext(context.Background(), g, FastOptions{Sketch: sketch.Options{Epsilon: 0.3, Dim: 256, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d, pair, ok := f.Diameter()
	if !ok {
		t.Fatal("Diameter: no boundary pair on a 40-node path")
	}
	// True resistance diameter of P40 is 39, attained by the endpoints.
	if math.Abs(d-39)/39 > 0.3 {
		t.Fatalf("diameter %g, want ≈39", d)
	}
	if pair.U > 3 || pair.V < 36 {
		t.Fatalf("diameter pair %v should be near the endpoints", pair)
	}
}
