package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"resistecc/internal/dataset"
	"resistecc/internal/graph"
	"resistecc/internal/linalg"
	"resistecc/internal/solver"
)

func TestTheoreticalDim(t *testing.T) {
	// d = ⌈24 ln n / ε²⌉.
	if d := TheoreticalDim(1000, 0.3); d != int(math.Ceil(24*math.Log(1000)/0.09)) {
		t.Fatalf("d=%d", d)
	}
	if TheoreticalDim(1, 0.5) != 1 {
		t.Fatal("tiny n should clamp to 1")
	}
}

func TestOptionsValidation(t *testing.T) {
	g := graph.Path(4).ToCSR()
	if _, err := NewContext(context.Background(), g, Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 must fail")
	}
	if _, err := NewContext(context.Background(), g, Options{Epsilon: 1.5}); err == nil {
		t.Fatal("epsilon >= 1 must fail")
	}
}

func TestSketchPathResistance(t *testing.T) {
	// On the 16-node path, sketched resistances should track |i−j| within a
	// modest relative error at d=256.
	g := graph.Path(16)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Dim != 256 || sk.N != 16 {
		t.Fatalf("dims %d/%d", sk.Dim, sk.N)
	}
	for i := 0; i < 16; i += 3 {
		for j := i + 1; j < 16; j += 2 {
			want := float64(j - i)
			got := sk.Resistance(i, j)
			if math.Abs(got-want)/want > 0.35 {
				t.Fatalf("r̃(%d,%d)=%g, want ≈%g", i, j, got, want)
			}
		}
	}
}

func TestSketchSelfResistanceZero(t *testing.T) {
	g := graph.Cycle(8)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r := sk.Resistance(3, 3); r != 0 {
		t.Fatalf("r̃(3,3)=%g", r)
	}
}

// buildWithProcs builds a sketch with GOMAXPROCS pinned to procs, which
// caps the build's worker count.
func buildWithProcs(t *testing.T, procs int, csr *graph.CSR, opt Options) *Sketch {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sk, err := NewContext(context.Background(), csr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestSketchDeterministic(t *testing.T) {
	g := graph.BarabasiAlbert(50, 2, 4)
	a := buildWithProcs(t, 4, g.ToCSR(), Options{Epsilon: 0.2, Dim: 40, Seed: 99})
	b := buildWithProcs(t, 1, g.ToCSR(), Options{Epsilon: 0.2, Dim: 40, Seed: 99})
	for v := 0; v < 50; v++ {
		pa, pb := a.Point(v), b.Point(v)
		for i := range pa {
			if math.Abs(pa[i]-pb[i]) > 1e-9 {
				t.Fatalf("sketch differs across worker counts at node %d dim %d", v, i)
			}
		}
	}
}

func TestEccentricityMatchesScan(t *testing.T) {
	g := graph.Lollipop(6, 4)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.25, Dim: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, far := sk.Eccentricity(0)
	// From inside the clique, the farthest node is the path tip (node 9).
	if far != 9 {
		t.Fatalf("farthest from clique should be path tip, got %d", far)
	}
	// Candidate-restricted scan that includes the true argmax must agree.
	c2, far2 := sk.EccentricityOver(0, []int{0, 3, 9, 5})
	if far2 != 9 || math.Abs(c-c2) > 1e-12 {
		t.Fatalf("EccentricityOver mismatch: %g/%d vs %g/%d", c, far, c2, far2)
	}
}

// Property: with the theoretical dimension, sketched resistances are within
// ε of exact with margin, on random graphs (spot-checked pairs).
func TestQuickSketchEpsilonBound(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.BarabasiAlbert(30, 2, seed)
		const eps = 0.5
		sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: eps, Seed: seed})
		if err != nil {
			return false
		}
		lp, err := linalg.Pseudoinverse(g)
		if err != nil {
			return false
		}
		for u := 0; u < 30; u += 5 {
			for v := u + 1; v < 30; v += 7 {
				exact := linalg.Resistance(lp, u, v)
				got := sk.Resistance(u, v)
				if got < (1-eps)*exact || got > (1+eps)*exact {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSketchEmptyGraph(t *testing.T) {
	sk, err := NewContext(context.Background(), graph.New(0).ToCSR(), Options{Epsilon: 0.3, Dim: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sk.N != 0 {
		t.Fatal("empty sketch")
	}
}

func TestBuildStats(t *testing.T) {
	g := graph.BarabasiAlbert(120, 3, 5)
	const dim = 48
	sk := buildWithProcs(t, 4, g.ToCSR(), Options{Epsilon: 0.3, Dim: dim, Seed: 2})
	st := sk.Stats
	if st.Rows != dim {
		t.Fatalf("stats rows %d, want %d", st.Rows, dim)
	}
	if st.TotalIters < st.MaxIters || st.MaxIters <= 0 {
		t.Fatalf("iteration stats inconsistent: total %d, max %d", st.TotalIters, st.MaxIters)
	}
	if st.TotalIters < dim {
		t.Fatalf("total iters %d below one per row", st.TotalIters)
	}
	if st.MaxResidual <= 0 || st.MaxResidual > 1e-8 {
		t.Fatalf("max relative residual %g implausible", st.MaxResidual)
	}
	if st.Workers != 4 {
		t.Fatalf("workers %d, want 4", st.Workers)
	}
}

// A failed build names the lowest failing row whatever the scheduling: a
// failure skips only the blocks above it. With one CG iteration every row
// of a 30×30 grid fails, so every build must report row 0, at any worker
// count.
func TestFailedBuildNamesLowestRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	csr := graph.Grid(30, 30).ToCSR()
	opt := Options{Epsilon: 0.3, Dim: 64, Seed: 1, Solver: solver.Options{MaxIter: 1}}
	for i := 0; i < 60; i++ {
		sk, err := NewContext(context.Background(), csr, opt)
		if sk != nil || !errors.Is(err, solver.ErrNoConvergence) {
			t.Fatalf("build %d: sketch %v, error %v; want no sketch and ErrNoConvergence", i, sk != nil, err)
		}
		if !strings.HasPrefix(err.Error(), "sketch: row 0: ") {
			t.Fatalf("build %d: %v; want the error of row 0", i, err)
		}
	}
}

// TestNewContextMatchesReference: the four-lane build equals the row-by-row
// reference bit for bit, points and BuildStats alike, for every sketch
// dimension shape (one block, a partial block, exact blocks) and worker
// count (GOMAXPROCS), and runs at most ⌈d/4⌉ workers.
func TestNewContextMatchesReference(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"ba120":            graph.BarabasiAlbert(120, 3, 5).ToCSR(),
		"unicode-language": unicodeProxy(t),
	}
	for _, name := range []string{"ba120", "unicode-language"} {
		csr := graphs[name]
		for _, d := range []int{1, 3, 4, 5, 64, 128} {
			opt := Options{Epsilon: 0.2, Dim: d, Seed: 7}
			ref, err := referenceSketch(csr, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/d=%d/workers=%d", name, d, workers), func(t *testing.T) {
					sk := buildWithProcs(t, workers, csr, opt)
					got, want := sk.Stats, ref.Stats
					if wantWorkers := min(workers, (d+3)/4); got.Workers != wantWorkers {
						t.Errorf("workers %d, want %d", got.Workers, wantWorkers)
					}
					got.Workers = 0
					if got != want {
						t.Errorf("stats %+v, reference %+v", got, want)
					}
					for v := 0; v < csr.N; v++ {
						for i, x := range sk.Point(v) {
							if math.Float64bits(x) != math.Float64bits(ref.Point(v)[i]) {
								t.Fatalf("node %d row %d: %v, reference %v", v, i, x, ref.Point(v)[i])
							}
						}
					}
				})
			}
		}
	}
}

func unicodeProxy(t testing.TB) *graph.CSR {
	t.Helper()
	info, err := dataset.Get("Unicode-language")
	if err != nil {
		t.Fatal(err)
	}
	g, err := info.Proxy(1)
	if err != nil {
		t.Fatal(err)
	}
	return g.ToCSR()
}

// TestPushIncidenceMatchesDenseIncidence: the right-hand sides the build
// pushes lane by lane equal Bᵀq computed against the dense incidence
// matrix, bit for bit, with q's signs drawn from each lane's stream into a
// projection row; lanes without a row stay zero. On the 4-node path the
// push is also checked by hand.
func TestPushIncidenceMatchesDenseIncidence(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(4), graph.BarabasiAlbert(50, 3, 2), graph.Lollipop(5, 4)} {
		csr := g.ToCSR()
		n := csr.N
		// Dense B, one row per edge in CSR order, oriented u→v for u < v.
		var dense [][]float64
		for u := 0; u < n; u++ {
			for _, v := range csr.Neighbors(u) {
				if int32(u) < v {
					row := make([]float64, n)
					row[u], row[v] = 1, -1
					dense = append(dense, row)
				}
			}
		}
		if len(dense) != csr.M {
			t.Fatalf("%d incidence rows, want m = %d", len(dense), csr.M)
		}
		for _, scale := range []float64{1, 1 / math.Sqrt(128)} {
			proj := newProjection(3, csr.M)
			var signs [solver.Lanes][]uint64
			for j := 0; j < 3; j++ {
				proj.drawRow(j, rand.New(rand.NewSource(int64(40+j))))
				signs[j] = proj.row(j)
			}
			b := make([][solver.Lanes]float64, n)
			for i := range b {
				b[i] = [solver.Lanes]float64{7, 7, 7, 7} // stale contents are overwritten
			}
			pushIncidence(csr, &signs, scale, b)
			for j := 0; j < solver.Lanes; j++ {
				want := make([]float64, n)
				if j < 3 {
					rng := rand.New(rand.NewSource(int64(40 + j)))
					for _, row := range dense {
						q := scale
						if rng.Int63()&1 == 1 {
							q = -scale
						}
						for w := range want {
							want[w] += row[w] * q
						}
					}
				}
				sum := 0.0
				for w := range want {
					if math.Float64bits(b[w][j]) != math.Float64bits(want[w]) {
						t.Fatalf("n=%d lane %d: (Bᵀq)[%d] = %v, dense gives %v", n, j, w, b[w][j], want[w])
					}
					sum += b[w][j]
				}
				if scale == 1 && sum != 0 {
					t.Fatalf("n=%d lane %d: Bᵀq sums to %v, want 0", n, j, sum)
				}
			}
			if n == 4 && scale == 1 {
				// Edges (0,1), (1,2), (2,3): Bᵀq = (q₀, q₁ − q₀, q₂ − q₁, −q₂).
				rng := rand.New(rand.NewSource(40))
				var q [3]float64
				for e := range q {
					q[e] = 1 - 2*float64(rng.Int63()&1)
				}
				want := [4]float64{q[0], q[1] - q[0], q[2] - q[1], -q[2]}
				for w, v := range want {
					if b[w][0] != v {
						t.Fatalf("path lane 0: (Bᵀq)[%d] = %v, want %v", w, b[w][0], v)
					}
				}
			}
		}
	}
}
