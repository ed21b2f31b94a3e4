// Package optimize implements §VI–VII of the paper: minimizing the
// resistance eccentricity c(s) of a source node s by adding k edges.
//
// Two problems are studied:
//
//   - REMD (Problem 1): candidates Q1 = {(s,u) : (s,u) ∉ E} — new edges must
//     touch the source.
//   - REM (Problem 2): candidates Q2 = (V×V)\E — new edges may go anywhere.
//
// The objective f_s(G(P)) = c(s) in the augmented graph is monotone
// non-increasing (Rayleigh) but not supermodular (§VI-B), so greedy carries
// no (1−1/e) guarantee; the paper instead proposes heuristics:
//
//   - Simple (Algorithm 4): exact greedy, one candidate sweep per round.
//     Implemented with Sherman–Morrison pseudoinverse updates so each
//     candidate is scored in O(n) instead of O(n³) (DESIGN.md ablation 4).
//   - FarMinRecc (Algorithm 5) and CenMinRecc (Algorithm 6) for REMD.
//   - ChMinRecc (Algorithm 8) and MinRecc (Algorithm 9) for REM.
//   - Exhaustive OPT-REMD/OPT-REM and the DE-/PK-/PATH-/RAND- baselines of
//     §VIII-C live in exhaustive.go and baselines.go.
//
// All algorithms leave the caller's graph unmodified and report the chosen
// edges in pick order, so c(s) trajectories can be replayed.
package optimize

import (
	"fmt"
	"math"

	"resistecc/internal/graph"
	"resistecc/internal/linalg"
)

// Problem selects the candidate edge set.
type Problem int

const (
	// REMD is Problem 1: edges incident to the source only (candidate Q1).
	REMD Problem = iota
	// REM is Problem 2: arbitrary missing edges (candidate Q2).
	REM
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case REMD:
		return "REMD"
	case REM:
		return "REM"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Result reports an edge-addition schedule.
type Result struct {
	// Algorithm names the producing algorithm (e.g. "FarMinRecc").
	Algorithm string
	// Problem is the candidate-set regime the schedule was produced under.
	Problem Problem
	// Source is the target node s.
	Source int
	// Edges lists the k chosen edges in pick order. May be shorter than the
	// requested k if the candidate set was exhausted.
	Edges []graph.Edge
}

// Apply returns a copy of g augmented with the first k edges of the result
// (k = len(r.Edges) if k < 0 or too large).
func (r *Result) Apply(g *graph.Graph, k int) (*graph.Graph, error) {
	if k < 0 || k > len(r.Edges) {
		k = len(r.Edges)
	}
	out := g.Clone()
	for _, e := range r.Edges[:k] {
		if err := out.AddEdge(e.U, e.V); err != nil {
			return nil, fmt.Errorf("optimize: applying %v: %w", e, err)
		}
	}
	return out, nil
}

func validate(g *graph.Graph, s, k int) error {
	if s < 0 || s >= g.N() {
		return fmt.Errorf("optimize: source %d out of range (n=%d)", s, g.N())
	}
	if k < 0 {
		return fmt.Errorf("optimize: negative budget k=%d", k)
	}
	if !g.Connected() {
		return fmt.Errorf("optimize: graph must be connected")
	}
	return nil
}

// EccAfterEdge returns c(s) in G ∪ {(u,v)} in O(n), given the pseudoinverse
// lp of G's Laplacian, via the Sherman–Morrison identity
//
//	r'(s,j) = r(s,j) − ((L†b)_s − (L†b)_j)² / (1 + r(u,v)),  b = e_u − e_v.
//
// It is the candidate scorer of Simple and Exhaustive; ablation 4 times it
// against naive re-inversion.
func EccAfterEdge(lp *linalg.Dense, s, u, v int) float64 {
	n := lp.N
	lss := lp.At(s, s)
	rowS := lp.Row(s)
	rowU := lp.Row(u)
	rowV := lp.Row(v)
	ws := rowU[s] - rowV[s]
	denom := 1 + (rowU[u] - rowV[u]) - (rowU[v] - rowV[v]) // 1 + r(u,v)
	best := 0.0
	for j := 0; j < n; j++ {
		if j == s {
			continue
		}
		r := lss + lp.At(j, j) - 2*rowS[j]
		wj := rowU[j] - rowV[j]
		diff := ws - wj
		r -= diff * diff / denom
		if r > best {
			best = r
		}
	}
	return best
}

// Simple is Algorithm 4 (SIM-REMD / SIM-REM): the exact greedy. Each round
// scores every remaining candidate edge by the exact post-insertion c(s)
// (O(n) per candidate via Sherman–Morrison) and commits the best one
// (O(n²) pseudoinverse update). Total O(k·|Q|·n + k·n²) after one O(n³)
// factorization — versus the naive O(k·|Q|·n³) quoted in §VI-A.
func Simple(g *graph.Graph, p Problem, s, k int) (*Result, error) {
	if err := validate(g, s, k); err != nil {
		return nil, err
	}
	work := g.Clone()
	lp, err := linalg.Pseudoinverse(work)
	if err != nil {
		return nil, fmt.Errorf("optimize: Simple: %w", err)
	}
	res := &Result{Algorithm: "Simple", Problem: p, Source: s}
	for i := 0; i < k; i++ {
		bestEcc := math.Inf(1)
		var bestEdge graph.Edge
		found := false
		forEachCandidate(work, p, s, func(u, v int) {
			c := EccAfterEdge(lp, s, u, v)
			if c < bestEcc {
				bestEcc = c
				bestEdge = graph.Edge{U: u, V: v}
				found = true
			}
		})
		if !found {
			break // candidate set exhausted
		}
		if err := work.AddEdge(bestEdge.U, bestEdge.V); err != nil {
			return nil, fmt.Errorf("optimize: Simple commit: %w", err)
		}
		linalg.AddEdgePinv(lp, bestEdge.U, bestEdge.V)
		res.Edges = append(res.Edges, bestEdge)
	}
	return res, nil
}

// forEachCandidate enumerates the current candidate set of the problem:
// Q1 = {(s,u) ∉ E} for REMD, Q2 = (V×V)\E for REM, against the *current*
// graph (previously committed edges are excluded automatically).
func forEachCandidate(g *graph.Graph, p Problem, s int, fn func(u, v int)) {
	n := g.N()
	switch p {
	case REMD:
		for u := 0; u < n; u++ {
			if u != s && !g.HasEdge(s, u) {
				e := graph.Edge{U: s, V: u}.Canon()
				fn(e.U, e.V)
			}
		}
	case REM:
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !g.HasEdge(u, v) {
					fn(u, v)
				}
			}
		}
	}
}

// ExactTrajectory replays an edge schedule and returns the exact c(s) after
// each prefix: out[0] is the original graph's c(s), out[i] the value after
// the first i edges. O(n³ + k·n²).
func ExactTrajectory(g *graph.Graph, s int, edges []graph.Edge) ([]float64, error) {
	if err := validate(g, s, 0); err != nil {
		return nil, err
	}
	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		return nil, fmt.Errorf("optimize: trajectory: %w", err)
	}
	out := make([]float64, 0, len(edges)+1)
	c, _ := linalg.EccentricityFromPinv(lp, s)
	out = append(out, c)
	for _, e := range edges {
		linalg.AddEdgePinv(lp, e.U, e.V)
		c, _ = linalg.EccentricityFromPinv(lp, s)
		out = append(out, c)
	}
	return out, nil
}
