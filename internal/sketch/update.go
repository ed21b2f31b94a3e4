//recclint:deterministic — incremental updates feed the served sketch; no wall clock or unseeded randomness.

// Exact sketch maintenance under single-edge graph mutations.
//
// The sketch is X̃ = Q·B·L†, and it keeps its projection Q (one sign per
// edge and row). Adding the edge (u,v), u < v, gives the new graph the
// incidence row bᵀ with b = e_u − e_v, the projection a new column q, and
// the Laplacian L' = L + bbᵀ. Sherman–Morrison on the pseudoinverse
// (restricted to 1⊥, where L is invertible) gives
//
//	L'† = L† − x·xᵀ / (1 + r),   x = L†b,   r = bᵀx = x[u] − x[v],
//
// where x costs one Laplacian solve on the *old* graph and r is the
// effective resistance r(u,v). Since Q·B·x = X̃·b = pts[u] − pts[v] = δ,
//
//	Q'·B'·L'† = (Q·B + q·bᵀ)·L'†   ⇒   pts'[w] = pts[w] + x[w]/(1+r)·(q − δ).
//
// Removing the edge, q being its stored column, is the same identity with
// the opposite signs: L'† = L† + x·xᵀ/(1 − r). Its denominator vanishes at
// a bridge and amplifies the solve's error near one, so a removal solves
// on the graph it leaves instead, where x' = L'†b = x/(1 − r), and
//
//	pts'[w] = pts[w] + x'[w]·(δ − q)
//
// has no denominator at all. Only a removal that disconnects the graph (a
// bridge, r = 1) is refused, with graph.ErrDisconnected. Either way the
// result is the sketch of the new graph under the updated projection Q',
// not an approximation of it, so updates accumulate no error beyond the
// solves' own. An added edge's column is drawn from a counter-based hash
// of (seed, u, v) (see addedColumn), so restored and replica sketches draw
// the same one.
//
// Each update costs one solve, one O(n·d) embedding pass and an
// O(d·m/64) copy of the projection, versus d solves for a full rebuild.
package sketch

import (
	"fmt"
	"math"

	"resistecc/internal/graph"
	"resistecc/internal/solver"
)

// AddEdgeUpdate returns the sketch of the graph csr ∪ {(u,v)}. csr must be
// the graph the receiver reflects, without the edge; a graph whose edge
// count differs from the receiver's projection is refused. The receiver is
// not modified; cost is one Laplacian solve plus an O(n·d) embedding pass —
// versus d solves for a full rebuild. The float64 result is always 0: the
// update is exact, so it adds no error term.
func (s *Sketch) AddEdgeUpdate(csr *graph.CSR, u, v int, sopt solver.Options) (*Sketch, float64, error) {
	u, v, e, err := s.locate(csr, u, v, false)
	if err != nil {
		return nil, 0, err
	}
	x, r, err := s.updateSolve(csr, u, v, sopt)
	if err != nil {
		return nil, 0, err
	}
	col := addedColumn(s.Seed, u, v, s.Dim)
	out := s.applyUpdate(x, u, v, col, 1/(1+r))
	out.proj = s.proj.withColumn(e, col)
	return out, 0, nil
}

// RemoveEdgeUpdate returns the sketch of csr \ {(u,v)}. csr must be the
// graph the receiver reflects, with the edge. The update solves on csr
// without the edge, so it is exact however close r(u,v) is to 1; a removal
// that would disconnect the graph is refused with graph.ErrDisconnected.
// The float64 result is always 0, as for AddEdgeUpdate.
func (s *Sketch) RemoveEdgeUpdate(csr *graph.CSR, u, v int, sopt solver.Options) (*Sketch, float64, error) {
	u, v, e, err := s.locate(csr, u, v, true)
	if err != nil {
		return nil, 0, err
	}
	after := csr.WithoutEdge(u, v)
	if !after.Connected() {
		return nil, 0, fmt.Errorf("sketch: removing (%d,%d) would disconnect the graph: %w", u, v, graph.ErrDisconnected)
	}
	x, _, err := s.updateSolve(after, u, v, sopt)
	if err != nil {
		return nil, 0, err
	}
	out := s.applyUpdate(x, u, v, s.proj.column(e), -1)
	out.proj = s.proj.withoutColumn(e)
	return out, 0, nil
}

// locate validates an update of (u,v) against csr and returns the edge
// oriented u < v, as B orients it, with its rank in csr's edge order.
// present says whether the update needs the edge to be in csr (a removal)
// or absent from it (an add).
func (s *Sketch) locate(csr *graph.CSR, u, v int, present bool) (int, int, int, error) {
	if csr.N != s.N {
		return 0, 0, 0, fmt.Errorf("sketch: update on %d-node graph, sketch has %d", csr.N, s.N)
	}
	if csr.M != s.proj.m {
		return 0, 0, 0, fmt.Errorf("sketch: update on a graph of %d edges, projection has %d", csr.M, s.proj.m)
	}
	if u < 0 || v < 0 || u >= s.N || v >= s.N {
		return 0, 0, 0, fmt.Errorf("%w: (%d,%d) with n=%d", graph.ErrNodeRange, u, v, s.N)
	}
	if u == v {
		return 0, 0, 0, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, u)
	}
	u, v = min(u, v), max(u, v)
	e, has := edgeRank(csr, u, v)
	switch {
	case present && !has:
		return 0, 0, 0, fmt.Errorf("%w: (%d,%d)", graph.ErrEdgeNotFound, u, v)
	case !present && has:
		return 0, 0, 0, fmt.Errorf("%w: (%d,%d)", graph.ErrDuplicateEdge, u, v)
	}
	return u, v, e, nil
}

// updateSolve computes x = L†(e_u − e_v) on csr and r = x[u] − x[v], the
// resistance r(u,v) in csr.
func (s *Sketch) updateSolve(csr *graph.CSR, u, v int, sopt solver.Options) ([]float64, float64, error) {
	lap, err := solver.NewLap(csr, sopt)
	if err != nil {
		return nil, 0, fmt.Errorf("sketch: incremental update: %w", err)
	}
	b := make([]float64, s.N)
	b[u], b[v] = 1, -1
	x := make([]float64, s.N)
	if _, err := lap.Solve(b, x); err != nil {
		return nil, 0, fmt.Errorf("sketch: incremental update solve: %w", err)
	}
	r := x[u] - x[v]
	if r <= 0 {
		return nil, 0, fmt.Errorf("sketch: incremental update: non-positive resistance %g for (%d,%d)", r, u, v)
	}
	return x, r, nil
}

// applyUpdate returns a fresh sketch, without a projection yet, with
// pts'[w] = pts[w] + c·x[w]·(q − δ), where δ = pts[u] − pts[v] and q is the
// edge's column of Q, given as sign words.
func (s *Sketch) applyUpdate(x []float64, u, v int, col []uint64, c float64) *Sketch {
	d, n := s.Dim, s.N
	out := &Sketch{
		Dim:     d,
		N:       n,
		Epsilon: s.Epsilon,
		Seed:    s.Seed,
		Stats:   s.Stats,
		Updates: s.Updates + 1,
	}
	out.pts = make([][]float64, n)
	flat := make([]float64, n*d)
	for w := 0; w < n; w++ {
		out.pts[w] = flat[w*d : (w+1)*d]
	}
	pos := math.Float64bits(1 / math.Sqrt(float64(d)))
	g := make([]float64, d)
	pu, pv := s.pts[u], s.pts[v]
	for i := range g {
		q := math.Float64frombits(pos | (col[i>>6]>>(i&63)&1)<<63)
		g[i] = q - (pu[i] - pv[i])
	}
	for w := 0; w < n; w++ {
		addScaledRow(out.pts[w], s.pts[w], g, c*x[w])
	}
	return out
}

// addScaledRow writes dst = src + c·g elementwise: the O(d) inner kernel
// of the embedding update, run once per node per update.
func addScaledRow(dst, src, g []float64, c float64) {
	if c == 0 {
		copy(dst, src)
		return
	}
	for i := range dst {
		dst[i] = src[i] + c*g[i]
	}
}
