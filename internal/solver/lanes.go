package solver

import (
	"errors"
	"fmt"
	"math"

	"resistecc/internal/graph"
)

// Lanes is the number of right-hand sides SolveLanes carries through each
// pass over the CSR. Per right-hand side on one core, a Laplacian product
// with its p·Lp took 210–237 µs one at a time on the Politician proxy,
// 70–79 µs four at a time and 63–67 µs eight at a time: eight lanes would
// double the accumulators and the code for 10–15% more.
const Lanes = 4

// LaneStats is one lane's outcome of SolveLanes: the iteration count and
// relative residual ‖b − Lx‖/‖b‖ that LastStats reports after Solve, and the
// error Solve returns, for that lane's right-hand side.
type LaneStats struct {
	Iters    int
	Residual float64
	Err      error
}

// laneMask has bit j set while lane j is still iterating.
type laneMask uint8

const allLanes laneMask = 1<<Lanes - 1

func (m laneMask) has(j int) bool { return m&(1<<j) != 0 }

// SolveLanes solves L x_j = b_j for Lanes right-hand sides at once. b[i][j]
// is node i's entry in lane j, and x has the same n×Lanes layout. Each lane
// starts from x = 0 and repeats Solve's arithmetic on its own b_j, operation
// for operation and in the same order, so its x, iteration count and
// residual are bit-identical to those of Solve(b_j, x_j) with x_j = 0, and it
// fails exactly when that Solve would. The lanes share every pass over the
// CSR and every O(n) vector pass. A lane that has converged is frozen: its
// x, r and p do not change while the others go on.
//
// st receives each lane's outcome. A lane whose b projects to zero returns
// x = 0 after 0 iterations, so a caller with fewer than Lanes right-hand
// sides leaves the spare lanes zero. The returned error joins the failing
// lanes' errors, each naming its lane, and is nil when every lane
// converged. b may be x itself: b is read in full before x is written.
func (s *Lap) SolveLanes(b, x [][Lanes]float64, st *[Lanes]LaneStats) error {
	n := s.csr.N
	if len(b) != n || len(x) != n {
		return fmt.Errorf("solver: dimension mismatch: n=%d len(b)=%d len(x)=%d", n, len(b), len(x))
	}
	*st = [Lanes]LaneStats{}
	if n == 0 {
		return nil
	}
	if s.r4 == nil {
		s.r4, s.p4, s.ap4, s.z4 = make([][Lanes]float64, n), make([][Lanes]float64, n),
			make([][Lanes]float64, n), make([][Lanes]float64, n)
	}
	r, p, ap, z := s.r4, s.p4, s.ap4, s.z4
	// From x = 0, Solve's first residual b − L·0 is the projected b, bit
	// for bit: L·0 is exactly +0.
	copy(r, b)
	projectLanes(r, allLanes)
	clear(x)
	rr := dotLanes(r, r) // rr[j] = ‖r_j‖², kept current for the stopping test
	var bnorm, tol [Lanes]float64
	var live laneMask
	for j := range bnorm {
		bnorm[j] = math.Sqrt(rr[j])
		tol[j] = s.opt.Tol * bnorm[j]
		if bnorm[j] != 0 {
			live |= 1 << j
		}
	}
	s.precondLanes(r, z)
	copy(p, z)
	rz := dotLanes(r, z)

	iter := 0
	for ; iter < s.opt.MaxIter; iter++ {
		for j := 0; j < Lanes; j++ {
			if live.has(j) && math.Sqrt(rr[j]) <= tol[j] {
				live &^= 1 << j
				st[j].Iters = iter
			}
		}
		if live == 0 {
			break
		}
		pap := lapMulDot4(s.csr, p, ap)
		var alpha [Lanes]float64
		for j := 0; j < Lanes; j++ {
			if !live.has(j) {
				continue
			}
			if pap[j] <= 0 {
				// p_j has drifted into the null space; re-project and retry.
				projectLanes(p, 1<<j)
				if pap[j] = lapMulLane(s.csr, p, ap, j); pap[j] <= 0 {
					live &^= 1 << j
					st[j].Iters = iter
					continue
				}
			}
			alpha[j] = rz[j] / pap[j]
		}
		if live == 0 {
			break
		}
		var rzNew [Lanes]float64
		if reproject := iter%64 == 63; live == allLanes && s.opt.Precond == Jacobi && !reproject {
			rzNew, rr = jacobiStep4(s.invD, &alpha, x, r, p, ap, z)
		} else {
			for j := 0; j < Lanes; j++ {
				if live.has(j) {
					axpyLane(alpha[j], p, x, j)
					axpyLane(-alpha[j], ap, r, j)
				}
			}
			// Keep the iterate and residual orthogonal to 1 against round-off.
			if reproject {
				projectLanes(x, live)
				projectLanes(r, live)
			}
			s.precondLanes(r, z)
			rzAll, rrAll := dotLanes(r, z), dotLanes(r, r)
			for j := 0; j < Lanes; j++ {
				if live.has(j) {
					rzNew[j], rr[j] = rzAll[j], rrAll[j]
				}
			}
		}
		var beta [Lanes]float64
		for j := 0; j < Lanes; j++ {
			if live.has(j) {
				beta[j] = rzNew[j] / rz[j]
				rz[j] = rzNew[j]
			}
		}
		updateDirection(&beta, z, p, live)
	}
	for j := 0; j < Lanes; j++ {
		if live.has(j) {
			st[j].Iters = iter // stopped at MaxIter
		}
	}

	projectLanes(x, allLanes)
	xx := dotLanes(x, x)
	var errs []error
	for j := 0; j < Lanes; j++ {
		if bnorm[j] == 0 {
			continue
		}
		res := math.Sqrt(rr[j])
		st[j].Residual = res / bnorm[j]
		if err := checkConverged(st[j].Iters, res, tol[j], math.Sqrt(xx[j]), bnorm[j], n); err != nil {
			st[j].Err = err
			errs = append(errs, fmt.Errorf("solver: lane %d: %w", j, err))
		}
	}
	return errors.Join(errs...)
}

// lapMulDot4 computes ap = L·p for all four lanes in one pass over the CSR
// and returns p_j·(L p)_j per lane. Each lane sums a row's neighbours in
// the row's order and the dot product in node order, as LapMul and
// linalg.Dot do for one vector.
func lapMulDot4(c *graph.CSR, p, ap [][Lanes]float64) (pap [Lanes]float64) {
	for u := range ap {
		var s0, s1, s2, s3 float64
		for _, v := range c.Col[c.Ptr[u]:c.Ptr[u+1]] {
			q := &p[v]
			s0 += q[0]
			s1 += q[1]
			s2 += q[2]
			s3 += q[3]
		}
		d := float64(c.Ptr[u+1] - c.Ptr[u])
		pu, au := &p[u], &ap[u]
		au[0] = d*pu[0] - s0
		au[1] = d*pu[1] - s1
		au[2] = d*pu[2] - s2
		au[3] = d*pu[3] - s3
		pap[0] += pu[0] * au[0]
		pap[1] += pu[1] * au[1]
		pap[2] += pu[2] * au[2]
		pap[3] += pu[3] * au[3]
	}
	return pap
}

// lapMulLane recomputes lane j of ap = L·p alone and returns p_j·(L p)_j.
func lapMulLane(c *graph.CSR, p, ap [][Lanes]float64, j int) float64 {
	pap := 0.0
	for u := range ap {
		s := 0.0
		row := c.Col[c.Ptr[u]:c.Ptr[u+1]]
		for _, v := range row {
			s += p[v][j]
		}
		ap[u][j] = float64(len(row))*p[u][j] - s
		pap += p[u][j] * ap[u][j]
	}
	return pap
}

// jacobiStep4 is one CG update of all four lanes under Jacobi, fused into
// one pass: x += αp, r −= α·Lp, z = D⁻¹r, and the per-lane sums r·z and r·r
// in node order. It is the arithmetic of Solve's two Axpy calls,
// applyPrecond, Dot(r, z) and the next step's Norm2(r).
func jacobiStep4(invD []float64, alpha *[Lanes]float64, x, r, p, ap, z [][Lanes]float64) (rz, rr [Lanes]float64) {
	a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
	n0, n1, n2, n3 := -a0, -a1, -a2, -a3
	for i := range r {
		xi, ri, pi, api, zi := &x[i], &r[i], &p[i], &ap[i], &z[i]
		xi[0] += a0 * pi[0]
		xi[1] += a1 * pi[1]
		xi[2] += a2 * pi[2]
		xi[3] += a3 * pi[3]
		ri[0] += n0 * api[0]
		ri[1] += n1 * api[1]
		ri[2] += n2 * api[2]
		ri[3] += n3 * api[3]
		d := invD[i]
		zi[0] = ri[0] * d
		zi[1] = ri[1] * d
		zi[2] = ri[2] * d
		zi[3] = ri[3] * d
		rz[0] += ri[0] * zi[0]
		rz[1] += ri[1] * zi[1]
		rz[2] += ri[2] * zi[2]
		rz[3] += ri[3] * zi[3]
		rr[0] += ri[0] * ri[0]
		rr[1] += ri[1] * ri[1]
		rr[2] += ri[2] * ri[2]
		rr[3] += ri[3] * ri[3]
	}
	return rz, rr
}

// updateDirection sets p = z + βp on the live lanes.
func updateDirection(beta *[Lanes]float64, z, p [][Lanes]float64, live laneMask) {
	if live != allLanes {
		for j := 0; j < Lanes; j++ {
			if live.has(j) {
				bj := beta[j]
				for i := range p {
					p[i][j] = z[i][j] + bj*p[i][j]
				}
			}
		}
		return
	}
	b0, b1, b2, b3 := beta[0], beta[1], beta[2], beta[3]
	for i := range p {
		pi, zi := &p[i], &z[i]
		pi[0] = zi[0] + b0*pi[0]
		pi[1] = zi[1] + b1*pi[1]
		pi[2] = zi[2] + b2*pi[2]
		pi[3] = zi[3] + b3*pi[3]
	}
}

// precondLanes applies the preconditioner to every lane: z = M⁻¹r, as
// applyPrecond does for one vector.
func (s *Lap) precondLanes(r, z [][Lanes]float64) {
	switch s.opt.Precond {
	case Jacobi:
		for i, d := range s.invD {
			ri, zi := &r[i], &z[i]
			zi[0] = ri[0] * d
			zi[1] = ri[1] * d
			zi[2] = ri[2] * d
			zi[3] = ri[3] * d
		}
	case SGS:
		s.sgsLanes(r, z)
	default:
		copy(z, r)
	}
}

// sgsLanes is applySGS on four lanes: the forward sweep with the lower
// triangle and the backward sweep with the upper, each lane summing a row's
// neighbours in the row's order. The forward result lives in ap4, which no
// Laplacian product needs while the preconditioner runs.
func (s *Lap) sgsLanes(r, z [][Lanes]float64) {
	c, invD, y := s.csr, s.invD, s.ap4
	for u := range y {
		sum := r[u]
		for _, v := range c.Neighbors(u) {
			if int(v) < u {
				yv := &y[v]
				sum[0] += yv[0]
				sum[1] += yv[1]
				sum[2] += yv[2]
				sum[3] += yv[3]
			}
		}
		d := invD[u]
		y[u] = [Lanes]float64{sum[0] * d, sum[1] * d, sum[2] * d, sum[3] * d}
	}
	for u := len(y) - 1; u >= 0; u-- {
		d := invD[u]
		yu := &y[u]
		sum := [Lanes]float64{yu[0] / d, yu[1] / d, yu[2] / d, yu[3] / d}
		for _, v := range c.Neighbors(u) {
			if int(v) > u {
				zv := &z[v]
				sum[0] += zv[0]
				sum[1] += zv[1]
				sum[2] += zv[2]
				sum[3] += zv[3]
			}
		}
		z[u] = [Lanes]float64{sum[0] * d, sum[1] * d, sum[2] * d, sum[3] * d}
	}
}

// projectLanes removes the mean from each lane in m, as linalg.ProjectOutOnes
// does for one vector: the lane's sum in node order, divided by n, then
// subtracted from every entry.
func projectLanes(v [][Lanes]float64, m laneMask) {
	var sum [Lanes]float64
	for i := range v {
		vi := &v[i]
		sum[0] += vi[0]
		sum[1] += vi[1]
		sum[2] += vi[2]
		sum[3] += vi[3]
	}
	n := float64(len(v))
	for j := 0; j < Lanes; j++ {
		if m.has(j) {
			mean := sum[j] / n
			for i := range v {
				v[i][j] -= mean
			}
		}
	}
}

// dotLanes returns a_j·b_j for every lane, each summed in node order as
// linalg.Dot does.
func dotLanes(a, b [][Lanes]float64) (s [Lanes]float64) {
	for i := range a {
		ai, bi := &a[i], &b[i]
		s[0] += ai[0] * bi[0]
		s[1] += ai[1] * bi[1]
		s[2] += ai[2] * bi[2]
		s[3] += ai[3] * bi[3]
	}
	return s
}

// axpyLane sets y_j += a·x_j on lane j, as linalg.Axpy does for one vector.
func axpyLane(a float64, x, y [][Lanes]float64, j int) {
	for i := range y {
		y[i][j] += a * x[i][j]
	}
}
