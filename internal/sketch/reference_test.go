package sketch

import (
	"fmt"
	"math"
	"math/rand"

	"resistecc/internal/graph"
	"resistecc/internal/solver"
)

// referenceSketch is the row-by-row APPROXER build the tests hold NewContext
// to: row i draws qᵢ from its own stream, pushes it through Bᵀ into an
// n-vector, and runs one Lap.Solve. Its BuildStats leave Workers zero.
func referenceSketch(csr *graph.CSR, opt Options) (*Sketch, error) {
	n, d := csr.N, opt.Dim
	sk := &Sketch{Dim: d, N: n, Epsilon: opt.Epsilon, pts: make([][]float64, n)}
	for v := range sk.pts {
		sk.pts[v] = make([]float64, d)
	}
	lap, err := solver.NewLap(csr, opt.Solver)
	if err != nil {
		return nil, err
	}
	scale := 1 / math.Sqrt(float64(d))
	q := make([]float64, csr.M)
	b := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < d; i++ {
		rng := rand.New(rand.NewSource(opt.Seed + int64(i)*0x9E3779B9))
		for e := range q {
			if rng.Int63()&1 == 0 {
				q[e] = scale
			} else {
				q[e] = -scale
			}
		}
		incidenceTMul(csr, q, b)
		clear(x)
		iters, err := lap.Solve(b, x)
		if err != nil {
			return nil, fmt.Errorf("sketch: row %d: %w", i, err)
		}
		_, res := lap.LastStats()
		sk.Stats.merge(BuildStats{Rows: 1, TotalIters: iters, MaxIters: iters, MaxResidual: res})
		for v := 0; v < n; v++ {
			sk.pts[v][i] = x[v]
		}
	}
	return sk, nil
}

// incidenceTMul computes y = Bᵀq, with B the signed edge–node incidence
// matrix, each edge oriented u→v for u < v and q indexed by the edges in
// CSR order.
func incidenceTMul(csr *graph.CSR, q, y []float64) {
	clear(y)
	e := 0
	for u := 0; u < csr.N; u++ {
		for _, v := range csr.Neighbors(u) {
			if int32(u) < v {
				y[u] += q[e]
				y[v] -= q[e]
				e++
			}
		}
	}
}
