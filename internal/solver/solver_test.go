package solver

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"resistecc/internal/graph"
	"resistecc/internal/linalg"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func solveOnce(t *testing.T, g *graph.Graph, opt Options, b []float64) []float64 {
	t.Helper()
	lap, err := NewLap(g.ToCSR(), opt)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, g.N())
	if _, err := lap.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	return x
}

func TestSolveMatchesPseudoinverse(t *testing.T) {
	for _, pc := range []Preconditioner{None, Jacobi, SGS} {
		g := graph.BarabasiAlbert(60, 3, 5)
		lp, err := linalg.Pseudoinverse(g)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, g.N())
		b[3], b[40] = 1, -1
		x := solveOnce(t, g, Options{Precond: pc}, b)
		// Expected: L†b = column 3 − column 40 of L†.
		for i := 0; i < g.N(); i++ {
			want := lp.At(i, 3) - lp.At(i, 40)
			if !almostEq(x[i], want, 1e-7) {
				t.Fatalf("precond %v: x[%d]=%g, want %g", pc, i, x[i], want)
			}
		}
	}
}

func TestSolvePathIllConditioned(t *testing.T) {
	// Long paths are the worst case for CG conditioning.
	g := graph.Path(400)
	b := make([]float64, 400)
	b[0], b[399] = 1, -1
	x := solveOnce(t, g, Options{Precond: Jacobi}, b)
	// r(0, 399) = 399.
	if r := x[0] - x[399]; !almostEq(r, 399, 1e-5) {
		t.Fatalf("path resistance via solve: %g, want 399", r)
	}
}

func TestResistanceHelper(t *testing.T) {
	g := graph.Cycle(10)
	lap, err := NewLap(g.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := lap.Resistance(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 2.5, 1e-8) { // k(L−k)/L = 5·5/10
		t.Fatalf("cycle r(0,5)=%g, want 2.5", r)
	}
}

func TestSolveZeroRHS(t *testing.T) {
	g := graph.Star(6)
	lap, err := NewLap(g.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 6)
	x := make([]float64, 6)
	x[0] = 99 // stale initial guess must be cleared
	iters, err := lap.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if iters != 0 {
		t.Fatalf("zero rhs should take 0 iterations, got %d", iters)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("x=%v, want zeros", x)
		}
	}
}

func TestSolveConstantRHSProjected(t *testing.T) {
	// b = 1 is entirely in the null space; the projected system is b=0.
	g := graph.Complete(5)
	lap, err := NewLap(g.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1, 1, 1}
	x := make([]float64, 5)
	if _, err := lap.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if !almostEq(v, 0, 1e-12) {
			t.Fatalf("x=%v", x)
		}
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	g := graph.Path(4)
	lap, err := NewLap(g.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lap.Solve(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestIsolatedNodeRejected(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLap(g.ToCSR(), Options{}); err == nil {
		t.Fatal("isolated node must be rejected")
	}
}

func TestMaxIterFailure(t *testing.T) {
	g := graph.Path(300)
	lap, err := NewLap(g.ToCSR(), Options{MaxIter: 3, Precond: None})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 300)
	b[0], b[299] = 1, -1
	x := make([]float64, 300)
	if _, err := lap.Solve(b, x); err == nil {
		t.Fatal("3 iterations cannot solve a 300-path; expected ErrNoConvergence")
	}
}

// The zero Options must run Jacobi-preconditioned CG: the index builds set
// only Tol, so the zero value is what every served sketch gets.
func TestZeroOptionsAreJacobi(t *testing.T) {
	csr := graph.BarabasiAlbert(200, 3, 11).ToCSR()
	b := make([]float64, csr.N)
	b[7], b[150] = 1, -1
	solve := func(opt Options) ([]float64, int) {
		lap, err := NewLap(csr, opt)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, csr.N)
		iters, err := lap.Solve(b, x)
		if err != nil {
			t.Fatal(err)
		}
		return x, iters
	}
	x0, it0 := solve(Options{})
	xj, itj := solve(Options{Precond: Jacobi})
	if it0 != itj {
		t.Fatalf("zero Options took %d iterations, Jacobi %d", it0, itj)
	}
	for i := range x0 {
		if math.Float64bits(x0[i]) != math.Float64bits(xj[i]) {
			t.Fatalf("x[%d]: zero Options %v, Jacobi %v", i, x0[i], xj[i])
		}
	}
}

// Two disjoint triangles pass the isolated-node check, but b = e_0 − e_3
// has a component in the second null-space vector that no iterate can
// remove. None and Jacobi stop on a search direction with no curvature,
// their residual far above target; SGS stops with its recurred residual
// converged and x past 1e15, longer than any connected graph's solution.
// All of them stop long before MaxIter, and each must say it failed.
func TestDisconnectedSolveFails(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	csr := g.ToCSR()
	for _, pc := range []Preconditioner{None, Jacobi, SGS} {
		t.Run(pc.String(), func(t *testing.T) {
			lap, err := NewLap(csr, Options{Precond: pc})
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, 6)
			b[0], b[3] = 1, -1
			x := make([]float64, 6)
			if _, err := lap.Solve(b, x); !errors.Is(err, ErrNoConvergence) {
				_, res := lap.LastStats()
				t.Fatalf("err = %v (relative residual %.3g), want ErrNoConvergence", err, res)
			}
		})
	}
}

func TestResidualNorm(t *testing.T) {
	g := graph.Cycle(6)
	csr := g.ToCSR()
	b := make([]float64, 6)
	b[0], b[3] = 1, -1
	x := solveOnce(t, g, Options{}, b)
	if rn := ResidualNorm(csr, b, x); rn > 1e-8 {
		t.Fatalf("residual %g", rn)
	}
}

// Property: solver resistance equals pseudoinverse resistance on random
// scale-free graphs, for every preconditioner.
func TestQuickSolverResistance(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.BarabasiAlbert(30, 2, seed)
		u, v := int(a)%30, int(b)%30
		if u == v {
			return true
		}
		lp, err := linalg.Pseudoinverse(g)
		if err != nil {
			return false
		}
		want := linalg.Resistance(lp, u, v)
		for _, pc := range []Preconditioner{None, Jacobi, SGS} {
			lap, err := NewLap(g.ToCSR(), Options{Precond: pc})
			if err != nil {
				return false
			}
			got, err := lap.Resistance(u, v)
			if err != nil {
				return false
			}
			if !almostEq(got, want, 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPreconditionerString(t *testing.T) {
	if None.String() != "none" || Jacobi.String() != "jacobi" || SGS.String() != "sgs" {
		t.Fatal("stringer broken")
	}
	if Preconditioner(9).String() == "" {
		t.Fatal("unknown preconditioner should still print")
	}
}

func TestLastStats(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 7)
	lap, err := NewLap(g.ToCSR(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, g.N())
	b[0], b[50] = 1, -1
	x := make([]float64, g.N())
	iters, err := lap.Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	gotIters, res := lap.LastStats()
	if gotIters != iters {
		t.Fatalf("LastStats iters %d, Solve returned %d", gotIters, iters)
	}
	if iters <= 0 {
		t.Fatalf("expected positive iteration count, got %d", iters)
	}
	if res < 0 || res > DefaultTol*4 {
		t.Fatalf("relative residual %g outside [0, 4·tol]", res)
	}
	// A zero RHS short-circuits and resets the stats.
	zero := make([]float64, g.N())
	if _, err := lap.Solve(zero, x); err != nil {
		t.Fatal(err)
	}
	if gotIters, res = lap.LastStats(); gotIters != 0 || res != 0 {
		t.Fatalf("zero-RHS stats = (%d, %g), want (0, 0)", gotIters, res)
	}
}
