//recclint:deterministic — incremental updates feed the served sketch; no wall clock or unseeded randomness.

// Incremental sketch maintenance under single-edge graph mutations.
//
// The sketch is X̃ = M·L† with M = Q·B fixed at build time. Adding the edge
// (u,v) replaces L by L' = L + bbᵀ with b = e_u − e_v, and Sherman–Morrison
// on the pseudoinverse (restricted to 1⊥, where L is invertible) gives
//
//	L'† = L† − (L†b)(L†b)ᵀ / (1 + bᵀL†b),
//
// so the updated embedding M·L'† follows from the current one by a rank-1
// correction: with x = L†b (one Laplacian solve on the *old* graph) and
// r = bᵀL†b = x[u] − x[v] (the effective resistance r(u,v)),
//
//	pts'[w] = pts[w] − (x[w] / (1+r)) · (pts[u] − pts[v]).
//
// Removing an edge is the same identity with the opposite sign and 1 − r in
// the denominator, valid only while r < 1 (r = 1 exactly when the edge is a
// bridge, whose removal disconnects the graph).
//
// The correction is exact for M·L'† but *not* for the true new-graph sketch
// Q'·B'·L'†, which would carry one extra random projection row for the new
// incidence column. The missing (addition) or stale (removal) row biases the
// sketched resistance of a pair (a,b) by at most
//
//	(bᵀL'†(e_a − e_b))² ≤ (bᵀL'†b)·((e_a−e_b)ᵀL'†(e_a−e_b)) = r'(u,v)·r'(a,b)
//
// by Cauchy–Schwarz in the L'† inner product — a relative error of at most
// r'(u,v), the effective resistance of the mutated pair in the *new* graph
// (r/(1+r) for additions, r/(1−r) for removals). That quantity is the drift
// contribution accumulated in Sketch.Drift; the lifecycle manager triggers a
// full rebuild once the sum crosses its ε_drift threshold, so serving error
// stays bounded by ε + Drift at all times.
package sketch

import (
	"errors"
	"fmt"

	"resistecc/internal/graph"
	"resistecc/internal/solver"
)

// ErrUnsafeUpdate reports that an incremental removal was refused because
// the edge's effective resistance is too close to 1 (a bridge or nearly so):
// the Sherman–Morrison denominator 1 − r degenerates and the drift bound
// becomes vacuous. Callers should fall back to a full rebuild.
var ErrUnsafeUpdate = errors.New("sketch: incremental update unsafe (edge resistance ≈ 1; bridge-like)")

// removeSafeLimit is the largest edge resistance for which an incremental
// removal is attempted; above it, ErrUnsafeUpdate is returned.
const removeSafeLimit = 0.95

// AddEdgeUpdate returns a new sketch approximating the graph csr ∪ {(u,v)},
// together with the drift contribution of the update. csr must be the
// pre-insertion graph the receiver was built on (the edge must not be
// present). The receiver is not modified; cost is one Laplacian solve plus
// an O(n·d) embedding pass — versus d solves for a full rebuild.
func (s *Sketch) AddEdgeUpdate(csr *graph.CSR, u, v int, sopt solver.Options) (*Sketch, float64, error) {
	x, r, err := s.updateSolve(csr, u, v, sopt)
	if err != nil {
		return nil, 0, err
	}
	// New-graph resistance of the inserted edge bounds the relative bias.
	contrib := r / (1 + r)
	out := s.applyRank1(x, u, v, -1/(1+r), contrib)
	return out, contrib, nil
}

// RemoveEdgeUpdate returns a new sketch approximating csr \ {(u,v)} and the
// drift contribution. csr must be the pre-removal graph (edge present, and
// not a bridge — removal must leave the graph connected, which the caller is
// responsible for checking structurally). Returns ErrUnsafeUpdate when the
// edge resistance is so close to 1 that the rank-1 downdate degenerates.
func (s *Sketch) RemoveEdgeUpdate(csr *graph.CSR, u, v int, sopt solver.Options) (*Sketch, float64, error) {
	x, r, err := s.updateSolve(csr, u, v, sopt)
	if err != nil {
		return nil, 0, err
	}
	if r >= removeSafeLimit {
		return nil, 0, fmt.Errorf("%w: r(%d,%d)=%.4f", ErrUnsafeUpdate, u, v, r)
	}
	contrib := r / (1 - r)
	out := s.applyRank1(x, u, v, 1/(1-r), contrib)
	return out, contrib, nil
}

// updateSolve computes x = L†(e_u − e_v) on csr and r = x[u] − x[v].
func (s *Sketch) updateSolve(csr *graph.CSR, u, v int, sopt solver.Options) ([]float64, float64, error) {
	if csr.N != s.N {
		return nil, 0, fmt.Errorf("sketch: update on %d-node graph, sketch has %d", csr.N, s.N)
	}
	if u < 0 || v < 0 || u >= s.N || v >= s.N {
		return nil, 0, fmt.Errorf("%w: (%d,%d) with n=%d", graph.ErrNodeRange, u, v, s.N)
	}
	if u == v {
		return nil, 0, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, u)
	}
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

// applyRank1 returns a fresh sketch with pts'[w] = pts[w] + scale·x[w]·δ,
// δ = pts[u] − pts[v], and the drift/update accounting advanced by contrib.
func (s *Sketch) applyRank1(x []float64, u, v int, scale, contrib float64) *Sketch {
	d, n := s.Dim, s.N
	out := &Sketch{
		Dim:     d,
		N:       n,
		Epsilon: s.Epsilon,
		Stats:   s.Stats,
		Drift:   s.Drift + contrib,
		Updates: s.Updates + 1,
	}
	out.pts = make([][]float64, n)
	flat := make([]float64, n*d)
	for w := 0; w < n; w++ {
		out.pts[w] = flat[w*d : (w+1)*d]
	}
	delta := make([]float64, d)
	pu, pv := s.pts[u], s.pts[v]
	for i := 0; i < d; i++ {
		delta[i] = pu[i] - pv[i]
	}
	for w := 0; w < n; w++ {
		addScaledRow(out.pts[w], s.pts[w], delta, scale*x[w])
	}
	return out
}

// addScaledRow writes dst = src + c·delta elementwise: the O(d) inner kernel
// of the rank-1 embedding correction, run once per node per update.
func addScaledRow(dst, src, delta []float64, c float64) {
	if c == 0 {
		copy(dst, src)
		return
	}
	for i := range dst {
		dst[i] = src[i] + c*delta[i]
	}
}
