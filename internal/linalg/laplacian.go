package linalg

import (
	"fmt"

	"resistecc/internal/graph"
)

// LaplacianDense materializes the dense Laplacian L = D − A of g.
func LaplacianDense(g *graph.Graph) *Dense {
	n := g.N()
	l := NewDense(n)
	for u := 0; u < n; u++ {
		l.Set(u, u, float64(g.Degree(u)))
		for _, v := range g.Neighbors(u) {
			l.Set(u, int(v), -1)
		}
	}
	return l
}

// Pseudoinverse computes the Moore–Penrose pseudoinverse of the Laplacian of
// a connected graph using the identity of §III-B:
//
//	L† = (L + J/n)⁻¹ − J/n,
//
// where J is the all-ones matrix. O(n³) time, O(n²) memory — this is the
// preprocessing step of EXACTQUERY (Algorithm 1, line 1).
func Pseudoinverse(g *graph.Graph) (*Dense, error) {
	n := g.N()
	if n == 0 {
		return NewDense(0), nil
	}
	if !g.Connected() {
		return nil, fmt.Errorf("linalg: pseudoinverse requires a connected graph: %w", graph.ErrDisconnected)
	}
	l := LaplacianDense(g)
	inv := 1 / float64(n)
	for i := range l.Data {
		l.Data[i] += inv
	}
	if err := l.Invert(); err != nil {
		return nil, fmt.Errorf("linalg: inverting L + J/n: %w", err)
	}
	for i := range l.Data {
		l.Data[i] -= inv
	}
	return l, nil
}

// Resistance returns the effective resistance r(u,v) read off a precomputed
// pseudoinverse: r(u,v) = L†_uu + L†_vv − 2 L†_uv (Eq. 1).
func Resistance(lp *Dense, u, v int) float64 {
	return lp.At(u, u) + lp.At(v, v) - 2*lp.At(u, v)
}

// AddEdgePinv updates the pseudoinverse in place for the insertion of edge
// (u,v) via the Sherman–Morrison formula. With b = e_u − e_v and w = L†b,
//
//	(L + bbᵀ)† = L† − w wᵀ / (1 + bᵀ L† b),
//
// valid because b ⊥ 1 keeps the null space unchanged. O(n²) per edge — this
// is what makes the SIMPLE greedy (Algorithm 4) and exhaustive OPT baselines
// run in practice (see DESIGN.md ablation 4).
//
// The denominator 1 + r(u,v) is always >= 1, so the update is
// unconditionally stable. Inserting an edge that is already present is a
// caller bug but remains mathematically well-defined (it models a parallel
// unit resistor).
func AddEdgePinv(lp *Dense, u, v int) {
	n := lp.N
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = lp.At(i, u) - lp.At(i, v)
	}
	denom := 1 + (w[u] - w[v]) // 1 + bᵀL†b = 1 + r(u,v)
	scale := 1 / denom
	for i := 0; i < n; i++ {
		wi := w[i] * scale
		if wi == 0 {
			continue
		}
		row := lp.Row(i)
		for j := 0; j < n; j++ {
			row[j] -= wi * w[j]
		}
	}
}

// EccentricityFromPinv returns c(s) = max_j r(s,j) and the farthest node,
// the query step of EXACTQUERY (Algorithm 1, line 3). O(n).
func EccentricityFromPinv(lp *Dense, s int) (c float64, farthest int) {
	lss := lp.At(s, s)
	row := lp.Row(s)
	farthest = s
	for j := 0; j < lp.N; j++ {
		if j == s {
			continue
		}
		r := lss + lp.At(j, j) - 2*row[j]
		if r > c {
			c, farthest = r, j
		}
	}
	return c, farthest
}
