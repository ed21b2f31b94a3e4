package solver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/graph"
	"resistecc/internal/linalg"
)

// incidencePush returns Bᵀq for a random ±1 vector q over the edges, the
// right-hand side shape of a sketch row.
func incidencePush(c *graph.CSR, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, c.N)
	for u := 0; u < c.N; u++ {
		for _, v := range c.Neighbors(u) {
			if int32(u) < v {
				q := 1.0
				if rng.Int63()&1 == 1 {
					q = -1
				}
				b[u] += q
				b[v] -= q
			}
		}
	}
	return b
}

func dipole(n, u, v int) []float64 {
	b := make([]float64, n)
	b[u], b[v] = 1, -1
	return b
}

// interleave packs up to Lanes vectors into the n×Lanes layout; missing
// lanes stay zero.
func interleave(n int, cols ...[]float64) [][Lanes]float64 {
	out := make([][Lanes]float64, n)
	for j, col := range cols {
		for i, v := range col {
			out[i][j] = v
		}
	}
	return out
}

func proxyCSR(t testing.TB, name string) *graph.CSR {
	t.Helper()
	info, err := dataset.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := info.Proxy(1)
	if err != nil {
		t.Fatal(err)
	}
	return g.ToCSR()
}

// checkLanesMatchSolve runs one SolveLanes call on rhs and requires each
// lane to equal a cold-started Solve on its own column, bit for bit: x, the
// iteration count, the relative residual and the error.
func checkLanesMatchSolve(t *testing.T, csr *graph.CSR, opt Options, rhs [Lanes][]float64) [Lanes][]float64 {
	t.Helper()
	n := csr.N
	lap, err := NewLap(csr, opt)
	if err != nil {
		t.Fatal(err)
	}
	b := interleave(n, rhs[:]...)
	x := make([][Lanes]float64, n)
	var st [Lanes]LaneStats
	laneErr := lap.SolveLanes(b, x, &st)
	var sols [Lanes][]float64
	for j := 0; j < Lanes; j++ {
		want := make([]float64, n)
		iters, err := lap.Solve(rhs[j], want)
		_, res := lap.LastStats()
		if st[j].Iters != iters || math.Float64bits(st[j].Residual) != math.Float64bits(res) {
			t.Errorf("lane %d: %d iterations, residual %v; Solve took %d, residual %v", j, st[j].Iters, st[j].Residual, iters, res)
		}
		if (st[j].Err == nil) != (err == nil) || err != nil && st[j].Err.Error() != err.Error() {
			t.Errorf("lane %d: error %v; Solve returned %v", j, st[j].Err, err)
		}
		if err != nil && !strings.Contains(fmt.Sprint(laneErr), fmt.Sprintf("lane %d: %v", j, err)) {
			t.Errorf("lane %d: SolveLanes returned %v, which does not name the lane's error %v", j, laneErr, err)
		}
		for i := range want {
			if math.Float64bits(x[i][j]) != math.Float64bits(want[i]) {
				t.Fatalf("lane %d: x[%d] = %v, Solve gives %v", j, i, x[i][j], want[i])
			}
		}
		sols[j] = want
	}
	failed := false
	for j := range st {
		failed = failed || st[j].Err != nil
	}
	if failed != (laneErr != nil) {
		t.Errorf("SolveLanes returned %v with lane errors %v", laneErr, st)
	}
	return sols
}

// TestSolveLanesMatchesSolve: every lane of SolveLanes equals Solve on its
// own right-hand side, bit for bit, under every preconditioner, with lanes
// converging at different steps and a zero lane in a different slot each
// call. On the small graphs the answers are also checked against the dense
// pseudoinverse.
func TestSolveLanesMatchesSolve(t *testing.T) {
	graphs := []struct {
		name string
		csr  *graph.CSR
	}{
		{"path", graph.Path(200).ToCSR()},
		{"grid", graph.Grid(12, 15).ToCSR()},
		{"barbell", graph.Barbell(8, 30).ToCSR()},
		{"lollipop", graph.Lollipop(10, 40).ToCSR()},
		{"watts-strogatz", graph.WattsStrogatz(300, 6, 0.1, 3).ToCSR()},
		{"scale-free", graph.BarabasiAlbert(40, 2, 9).ToCSR()},
		{"unicode-language", proxyCSR(t, "Unicode-language")},
		{"politician", proxyCSR(t, "Politician")},
	}
	for _, gc := range graphs {
		n := gc.csr.N
		var lp *linalg.Dense
		if n <= 200 {
			g := graph.New(n)
			for u := 0; u < n; u++ {
				for _, v := range gc.csr.Neighbors(u) {
					if int32(u) < v {
						if err := g.AddEdge(u, int(v)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			var err error
			if lp, err = linalg.Pseudoinverse(g); err != nil {
				t.Fatal(err)
			}
		}
		for _, pc := range []Preconditioner{Jacobi, None, SGS} {
			t.Run(gc.name+"/"+pc.String(), func(t *testing.T) {
				for call := 0; call < Lanes; call++ {
					var rhs [Lanes][]float64
					for j := range rhs {
						switch (j + call) % Lanes {
						case 0:
							rhs[j] = make([]float64, n)
						case 1:
							rhs[j] = dipole(n, call, n-1-call)
						default:
							rhs[j] = incidencePush(gc.csr, int64(10*call+j))
						}
					}
					sols := checkLanesMatchSolve(t, gc.csr, Options{Precond: pc}, rhs)
					if lp == nil {
						continue
					}
					for j, b := range rhs {
						for i := 0; i < n; i++ {
							want := 0.0
							for k, bk := range b {
								want += lp.At(i, k) * bk
							}
							if !almostEq(sols[j][i], want, 1e-7*math.Max(1, math.Abs(want))) {
								t.Fatalf("lane %d: x[%d] = %g, L†b gives %g", j, i, sols[j][i], want)
							}
						}
					}
				}
			})
		}
	}
}

// TestSolveLanesFailures: lanes fail exactly as Solve does, alone. On two
// disjoint triangles the dipole across them fails while the right-hand
// sides inside one component converge; with a 40-node path as a third
// component, the cross dipole fails within five steps while the path's
// dipole is still iterating. On a lollipop capped at five steps, the clique dipoles
// converge in one step and return their answers while the dipole to the
// path's tip reaches MaxIter and fails. SGS sits that case out: its sweeps
// carry a clique dipole onto the path, so the two kinds of lane take 34 and
// 36 steps and no cap splits them.
func TestSolveLanesFailures(t *testing.T) {
	triangles := func(pathLen int) *graph.Graph {
		g := graph.New(6 + pathLen)
		for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		for u := 6; u+1 < 6+pathLen; u++ {
			if err := g.AddEdge(u, u+1); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		first [2]int // lane 0's dipole, inside one component
	}{
		{"triangles", triangles(0), [2]int{0, 1}},
		{"triangles+path", triangles(40), [2]int{6, 45}},
	} {
		for _, pc := range []Preconditioner{Jacobi, None, SGS} {
			t.Run(tc.name+"/"+pc.String(), func(t *testing.T) {
				csr := tc.g.ToCSR()
				n := csr.N
				rhs := [Lanes][]float64{dipole(n, tc.first[0], tc.first[1]), dipole(n, 0, 3), incidencePush(csr, 5), make([]float64, n)}
				checkLanesMatchSolve(t, csr, Options{Precond: pc}, rhs)
				lap, err := NewLap(csr, Options{Precond: pc})
				if err != nil {
					t.Fatal(err)
				}
				var st [Lanes]LaneStats
				b := interleave(n, rhs[:]...)
				err = lap.SolveLanes(b, b, &st)
				if !errors.Is(err, ErrNoConvergence) || !errors.Is(st[1].Err, ErrNoConvergence) {
					t.Fatalf("SolveLanes returned %v, lane 1 %v; want ErrNoConvergence", err, st[1].Err)
				}
				if st[0].Err != nil || st[2].Err != nil || st[3].Err != nil {
					t.Fatalf("lanes inside one component failed: %v", st)
				}
			})
		}
	}
	for _, pc := range []Preconditioner{Jacobi, None} {
		t.Run("maxiter/"+pc.String(), func(t *testing.T) {
			csr := graph.Lollipop(8, 60).ToCSR()
			n := csr.N
			opt := Options{Precond: pc, MaxIter: 5}
			rhs := [Lanes][]float64{dipole(n, 1, 2), dipole(n, 1, n-1), make([]float64, n), dipole(n, 3, 5)}
			checkLanesMatchSolve(t, csr, opt, rhs)
			lap, err := NewLap(csr, opt)
			if err != nil {
				t.Fatal(err)
			}
			var st [Lanes]LaneStats
			x := make([][Lanes]float64, n)
			err = lap.SolveLanes(interleave(n, rhs[:]...), x, &st)
			if !errors.Is(st[1].Err, ErrNoConvergence) || st[1].Iters != 5 {
				t.Fatalf("lane 1: %d iterations, error %v; want MaxIter 5 and ErrNoConvergence", st[1].Iters, st[1].Err)
			}
			if err == nil || !strings.Contains(err.Error(), "lane 1:") || strings.Contains(err.Error(), "lane 0:") || strings.Contains(err.Error(), "lane 3:") {
				t.Fatalf("SolveLanes returned %v; want lane 1's failure alone", err)
			}
			// A clique dipole e_u − e_v away from the path is an eigenvector,
			// L b = k·b, and so is D⁻¹b: CG finishes in one step.
			for _, j := range []int{0, 3} {
				if st[j].Err != nil || st[j].Iters != 1 {
					t.Fatalf("clique lane %d: %d iterations, error %v; want 1 step, converged", j, st[j].Iters, st[j].Err)
				}
			}
			if r := x[1][0] - x[2][0]; !almostEq(r, 2.0/8, 1e-9) {
				t.Fatalf("clique lane: r(1,2) = %v, want 1/4", r)
			}
		})
	}
}

func TestSolveLanesEdgeCases(t *testing.T) {
	csr := graph.Cycle(6).ToCSR()
	lap, err := NewLap(csr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var st [Lanes]LaneStats
	if err := lap.SolveLanes(make([][Lanes]float64, 5), make([][Lanes]float64, 6), &st); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	// A stale x is overwritten, and a constant b projects to zero.
	x := make([][Lanes]float64, 6)
	b := make([][Lanes]float64, 6)
	for i := range x {
		x[i] = [Lanes]float64{9, 9, 9, 9}
		b[i] = [Lanes]float64{1, 0, 0, 0}
	}
	if err := lap.SolveLanes(b, x, &st); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != ([Lanes]float64{}) {
			t.Fatalf("x[%d] = %v, want zeros", i, x[i])
		}
	}
	if st != ([Lanes]LaneStats{}) {
		t.Fatalf("stats %v, want all zero", st)
	}
	empty, err := NewLap(graph.New(0).ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.SolveLanes(nil, nil, &st); err != nil {
		t.Fatal(err)
	}
}
