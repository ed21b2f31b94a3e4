// Package solver provides the Laplacian linear-system substrate that the
// paper obtains from an off-the-shelf SDD solver (Kyng–Sachdeva approximate
// Gaussian elimination, reference [80]). We hand-roll a preconditioned
// Conjugate Gradient over CSR Laplacians instead: per-iteration cost is
// O(m), the solution is exact in the limit, and the calling code (APPROXER,
// FASTQUERY, the optimization loops) is agnostic to which SDD solver sits
// underneath. See DESIGN.md, "Substitutions".
//
// Laplacians are symmetric positive semidefinite with null space span{1}
// (for connected graphs). All solves here assume a connected graph, project
// the right-hand side and iterates onto 1⊥, and return the mean-zero
// (pseudoinverse) solution x = L†b.
package solver

import (
	"errors"
	"fmt"
	"math"

	"resistecc/internal/graph"
	"resistecc/internal/linalg"
)

// Preconditioner selects the CG preconditioner.
type Preconditioner int

const (
	// Jacobi preconditions with the degree diagonal D⁻¹ — essentially free
	// and effective on the irregular-degree scale-free graphs studied here.
	// It is the zero value, so every index build uses it.
	Jacobi Preconditioner = iota
	// None runs plain CG; the solver ablation compares against it.
	None
	// SGS preconditions with the symmetric Gauss–Seidel splitting
	// M = (D+Lo) D⁻¹ (D+Lo)ᵀ where Lo is the strict lower triangle of L.
	// One application costs one forward plus one backward sweep (O(m)).
	SGS
)

// String implements fmt.Stringer.
func (p Preconditioner) String() string {
	switch p {
	case None:
		return "none"
	case Jacobi:
		return "jacobi"
	case SGS:
		return "sgs"
	default:
		return fmt.Sprintf("Preconditioner(%d)", int(p))
	}
}

// Options configures a Laplacian solve.
type Options struct {
	// Tol is the relative residual target ‖b − Lx‖ ≤ Tol·‖b‖. Zero means
	// the DefaultTol.
	Tol float64
	// MaxIter caps CG iterations; zero means 10n + 100.
	MaxIter int
	// Precond selects the preconditioner; the zero value is Jacobi.
	Precond Preconditioner
}

// DefaultTol is the default relative residual target. 1e-10 keeps the solver
// error far below the ε-approximation error of the JL sketch, so sketch
// accuracy is governed by dimension alone.
const DefaultTol = 1e-10

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10*n + 100
	}
	return o
}

// ErrNoConvergence reports that a solve ended above 4·Tol, or with an x too
// long for any connected graph: CG hit MaxIter, or the graph is disconnected
// and CG stopped early, on a search direction without curvature or on a
// recurred residual that no longer tracks b − Lx.
var ErrNoConvergence = errors.New("solver: conjugate gradient did not converge")

// Lap is a reusable Laplacian solver bound to one CSR snapshot.
// It owns scratch buffers, so a single Lap must not be used concurrently;
// create one per goroutine (they share the read-only CSR).
type Lap struct {
	csr  *graph.CSR
	opt  Options
	invD []float64 // 1/degree, Jacobi scaling
	// scratch
	r, p, ap, z []float64
	// last-solve diagnostics (see LastStats); single-goroutine like scratch
	lastIters    int
	lastResidual float64
}

// NewLap builds a solver for the Laplacian of csr. Graphs with isolated
// nodes (degree 0) are rejected: the paper's graphs are connected.
func NewLap(csr *graph.CSR, opt Options) (*Lap, error) {
	n := csr.N
	s := &Lap{
		csr:  csr,
		opt:  opt.withDefaults(n),
		invD: make([]float64, n),
		r:    make([]float64, n),
		p:    make([]float64, n),
		ap:   make([]float64, n),
		z:    make([]float64, n),
	}
	for u := 0; u < n; u++ {
		d := csr.Degree(u)
		if d == 0 && n > 1 {
			return nil, fmt.Errorf("solver: node %d is isolated; Laplacian solve requires a connected graph: %w",
				u, graph.ErrDisconnected)
		}
		if d > 0 {
			s.invD[u] = 1 / float64(d)
		}
	}
	return s, nil
}

// Solve computes x = L†b for b ⊥ 1 (b is projected if not). x must have
// length n and provides the initial guess; pass a zero slice for a cold
// start. Returns the iteration count used.
func (s *Lap) Solve(b, x []float64) (int, error) {
	n := s.csr.N
	if len(b) != n || len(x) != n {
		return 0, fmt.Errorf("solver: dimension mismatch: n=%d len(b)=%d len(x)=%d", n, len(b), len(x))
	}
	if n == 0 {
		return 0, nil
	}
	// Work on a projected copy of b; callers keep their buffer.
	rhs := append([]float64(nil), b...)
	linalg.ProjectOutOnes(rhs)
	bnorm := linalg.Norm2(rhs)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		s.lastIters, s.lastResidual = 0, 0
		return 0, nil
	}
	linalg.ProjectOutOnes(x)

	r, p, ap, z := s.r, s.p, s.ap, s.z
	s.csr.LapMul(x, ap)
	for i := range r {
		r[i] = rhs[i] - ap[i]
	}
	s.applyPrecond(r, z)
	copy(p, z)
	rz := linalg.Dot(r, z)
	tol := s.opt.Tol * bnorm

	iter := 0
	for ; iter < s.opt.MaxIter; iter++ {
		if linalg.Norm2(r) <= tol {
			break
		}
		s.csr.LapMul(p, ap)
		pap := linalg.Dot(p, ap)
		if pap <= 0 {
			// p has drifted into the null space; re-project and restart.
			linalg.ProjectOutOnes(p)
			s.csr.LapMul(p, ap)
			pap = linalg.Dot(p, ap)
			if pap <= 0 {
				break
			}
		}
		alpha := rz / pap
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, ap, r)
		// Keep the iterate and residual orthogonal to 1 against round-off.
		if iter%64 == 63 {
			linalg.ProjectOutOnes(x)
			linalg.ProjectOutOnes(r)
		}
		s.applyPrecond(r, z)
		rzNew := linalg.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	linalg.ProjectOutOnes(x)
	res := linalg.Norm2(r)
	s.lastIters, s.lastResidual = iter, res/bnorm
	// A connected graph on n nodes has λ₂ ≥ 4/(n·diam) ≥ 4/(n(n−1))
	// (Mohar 1991), so a solution x ⊥ 1 has ‖x‖ ≤ ‖b‖·n(n−1)/4. An x twice
	// that long means r no longer tracks b − Lx: on a disconnected graph SGS
	// leaks into the second null vector, and x grows past 1e15 while r reads
	// converged.
	xnorm := linalg.Norm2(x)
	if res > tol*4 || xnorm > bnorm*float64(n)*float64(n-1)/2 {
		return iter, fmt.Errorf("%w: %d iterations, residual %.3e (target %.3e), ‖x‖/‖b‖ = %.3g",
			ErrNoConvergence, iter, res, tol, xnorm/bnorm)
	}
	return iter, nil
}

// LastStats reports the iteration count and relative residual
// ‖b − Lx‖/‖b‖ of the most recent Solve. Like the scratch buffers, these
// are per-Lap state: read them from the goroutine that called Solve.
func (s *Lap) LastStats() (iters int, relResidual float64) {
	return s.lastIters, s.lastResidual
}

func (s *Lap) applyPrecond(r, z []float64) {
	switch s.opt.Precond {
	case None:
		copy(z, r)
	case Jacobi:
		for i := range z {
			z[i] = r[i] * s.invD[i]
		}
	case SGS:
		s.applySGS(r, z)
	default:
		copy(z, r)
	}
}

// applySGS solves M z = r with M = (D+Lo) D⁻¹ (D+Lo)ᵀ: a forward sweep with
// the lower triangle, a diagonal scaling, then a backward sweep with the
// upper triangle. Off-diagonal Laplacian entries are all −1 on neighbours.
func (s *Lap) applySGS(r, z []float64) {
	csr := s.csr
	n := csr.N
	// Forward: (D + Lo) y = r, Lo_{uv} = −1 for neighbours v < u.
	y := s.ap // reuse scratch; LapMul is not in flight during precond
	for u := 0; u < n; u++ {
		sum := r[u]
		for _, v := range csr.Neighbors(u) {
			if int(v) < u {
				sum += y[v]
			}
		}
		y[u] = sum * s.invD[u]
	}
	// Diagonal: y ← D y  (cancels with the scaling below; combined form)
	// Backward: (D + Up) z = D y.
	for u := n - 1; u >= 0; u-- {
		sum := y[u] / s.invD[u]
		for _, v := range csr.Neighbors(u) {
			if int(v) > u {
				sum += z[v]
			}
		}
		z[u] = sum * s.invD[u]
	}
}

// Resistance computes r(u,v) exactly (to solver tolerance) with a single
// solve: r(u,v) = bᵀL†b for b = e_u − e_v.
func (s *Lap) Resistance(u, v int) (float64, error) {
	n := s.csr.N
	b := make([]float64, n)
	b[u], b[v] = 1, -1
	x := make([]float64, n)
	if _, err := s.Solve(b, x); err != nil {
		return 0, err
	}
	r := x[u] - x[v]
	if r < 0 {
		r = 0 // round-off guard; effective resistance is non-negative
	}
	return r, nil
}

// Columns solves L x_i = b_i for a batch of right-hand sides, writing each
// solution over its input row. Rows are independent solves sharing the CSR.
func Columns(csr *graph.CSR, opt Options, rhs [][]float64) error {
	lap, err := NewLap(csr, opt)
	if err != nil {
		return err
	}
	x := make([]float64, csr.N)
	for i := range rhs {
		for j := range x {
			x[j] = 0
		}
		if _, err := lap.Solve(rhs[i], x); err != nil {
			return fmt.Errorf("solver: batch column %d: %w", i, err)
		}
		copy(rhs[i], x)
	}
	return nil
}

// ResidualNorm returns ‖b − Lx‖₂ for diagnostics and tests.
func ResidualNorm(csr *graph.CSR, b, x []float64) float64 {
	ap := make([]float64, csr.N)
	csr.LapMul(x, ap)
	s := 0.0
	for i := range ap {
		d := b[i] - ap[i]
		s += d * d
	}
	return math.Sqrt(s)
}
