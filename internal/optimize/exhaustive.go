package optimize

import (
	"fmt"
	"math"

	"resistecc/internal/graph"
	"resistecc/internal/linalg"
)

// Exhaustive is OPT-REMD / OPT-REM (§VIII-C): it enumerates every size-k
// subset of the candidate set and returns one minimizing the exact c(s) in
// the augmented graph. Exponential in k — intended only for the tiny
// networks of Figure 8 (n ≤ 18, k ≤ 4).
//
// Each subset is evaluated incrementally: depth-d recursion carries the
// pseudoinverse of the graph with the first d chosen edges applied
// (Sherman–Morrison, O(n²) per extension), so a full evaluation never
// re-factorizes.
func Exhaustive(g *graph.Graph, p Problem, s, k int) (*Result, float64, error) {
	if err := validate(g, s, k); err != nil {
		return nil, 0, err
	}
	var cand []graph.Edge
	forEachCandidate(g, p, s, func(u, v int) {
		cand = append(cand, graph.Edge{U: u, V: v})
	})
	if k > len(cand) {
		k = len(cand)
	}
	name := "OPT-REMD"
	if p == REM {
		name = "OPT-REM"
	}
	res := &Result{Algorithm: name, Problem: p, Source: s}

	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		return nil, 0, fmt.Errorf("optimize: Exhaustive: %w", err)
	}
	if k == 0 {
		c, _ := linalg.EccentricityFromPinv(lp, s)
		return res, c, nil
	}

	bestEcc := math.Inf(1)
	best := make([]graph.Edge, k)
	chosen := make([]graph.Edge, 0, k)

	var recurse func(lp *linalg.Dense, start int)
	recurse = func(lp *linalg.Dense, start int) {
		if len(chosen) == k {
			c, _ := linalg.EccentricityFromPinv(lp, s)
			if c < bestEcc {
				bestEcc = c
				copy(best, chosen)
			}
			return
		}
		remaining := k - len(chosen)
		for i := start; i+remaining <= len(cand); i++ {
			e := cand[i]
			next := lp
			if len(chosen)+1 == k {
				// Leaf: score without copying the whole matrix.
				c := EccAfterEdge(lp, s, e.U, e.V)
				if c < bestEcc {
					bestEcc = c
					copy(best, chosen)
					best[k-1] = e
				}
				continue
			}
			next = lp.Clone()
			linalg.AddEdgePinv(next, e.U, e.V)
			chosen = append(chosen, e)
			recurse(next, i+1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	recurse(lp, 0)
	if math.IsInf(bestEcc, 1) {
		// No subset of size k exists (empty candidate set).
		c, _ := linalg.EccentricityFromPinv(lp, s)
		return res, c, nil
	}
	res.Edges = best
	return res, bestEcc, nil
}
