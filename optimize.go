package resistecc

import (
	"context"
	"fmt"

	"resistecc/internal/graph"
	"resistecc/internal/optimize"
	"resistecc/internal/pagerank"
)

// Problem selects the candidate edge set of the optimization problems of
// §VI: REMD restricts new edges to the source node, REM allows any missing
// edge.
type Problem int

const (
	// REMD is Problem 1 (direct edge addition to the source).
	REMD Problem = iota
	// REM is Problem 2 (arbitrary edge addition).
	REM
)

func (p Problem) internal() optimize.Problem {
	if p == REM {
		return optimize.REM
	}
	return optimize.REMD
}

// String implements fmt.Stringer.
func (p Problem) String() string { return p.internal().String() }

// Plan is an edge-addition schedule minimizing the resistance eccentricity
// of Source.
type Plan struct {
	Algorithm string
	Problem   Problem
	Source    int
	// Edges lists the chosen edges in pick order (may be shorter than the
	// requested budget if candidates ran out).
	Edges [][2]int
}

func convPlan(r *optimize.Result) *Plan {
	p := &Plan{Algorithm: r.Algorithm, Source: r.Source}
	if r.Problem == optimize.REM {
		p.Problem = REM
	}
	p.Edges = make([][2]int, len(r.Edges))
	for i, e := range r.Edges {
		p.Edges[i] = [2]int{e.U, e.V}
	}
	return p
}

func (p *Plan) internalEdges() []graph.Edge {
	es := make([]graph.Edge, len(p.Edges))
	for i, e := range p.Edges {
		es[i] = graph.Edge{U: e[0], V: e[1]}
	}
	return es
}

// Apply returns a copy of g with the plan's first k edges added
// (k < 0 applies all).
func (p *Plan) Apply(g *Graph, k int) (*Graph, error) {
	if k < 0 || k > len(p.Edges) {
		k = len(p.Edges)
	}
	out := g.Clone()
	for _, e := range p.Edges[:k] {
		if err := out.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("resistecc: applying plan edge (%d,%d): %w", e[0], e[1], err)
		}
	}
	return out, nil
}

// ExactTrajectory replays the plan and returns the exact c(s) after each
// prefix: element 0 is the unmodified graph, element i the value after i
// added edges. Costs O(n³ + k·n²); intended for evaluation, not for
// million-node graphs.
func (p *Plan) ExactTrajectory(g *Graph) ([]float64, error) {
	return optimize.ExactTrajectory(g.inner(), p.Source, p.internalEdges())
}

// OptimizeOptions configures the sketch-based optimizers.
type OptimizeOptions struct {
	// Sketch configures APPROXER (Epsilon required).
	Sketch SketchOptions
	// Hull caps the APPROXCH boundary the REM heuristics score candidates
	// on. θ is ε/12, as for FastIndex, but round r's hull seed is
	// Sketch.Seed + 7919 + r, where FastIndex's is Sketch.Seed + 1.
	Hull HullOptions
	// MaxCandidates caps the hull-pair candidates ChMinRecc/MinRecc score
	// per round (0 = the paper's uncapped O(l²) set).
	MaxCandidates int
}

func (o OptimizeOptions) internal() optimize.FastOptions {
	return optimize.FastOptions{
		Sketch:        o.Sketch.internal(),
		Hull:          o.Hull.internal(),
		MaxCandidates: o.MaxCandidates,
	}
}

// GreedyExact is the paper's SIMPLE greedy (Algorithm 4): each round adds
// the candidate edge minimizing the exact post-insertion c(s). Implemented
// with Sherman–Morrison pseudoinverse updates (O(n) per candidate after an
// O(n³) setup).
func GreedyExact(g *Graph, p Problem, s, k int) (*Plan, error) {
	r, err := optimize.Simple(g.inner(), p.internal(), s, k)
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}

// Exhaustive computes the true optimum OPT-REMD / OPT-REM by enumerating all
// size-k candidate subsets. Exponential in k; for tiny graphs only.
// It returns the optimal plan and the optimal value of c(s).
func Exhaustive(g *Graph, p Problem, s, k int) (*Plan, float64, error) {
	r, c, err := optimize.Exhaustive(g.inner(), p.internal(), s, k)
	if err != nil {
		return nil, 0, err
	}
	return convPlan(r), c, nil
}

// FarMinRecc (Algorithm 5, REMD) repeatedly connects s to its sketched-
// farthest node. Õ(k·m/ε²). ctx cancels the per-round sketch rebuilds; the
// other sketch-based heuristics below thread it the same way.
func FarMinRecc(ctx context.Context, g *Graph, s, k int, opt OptimizeOptions) (*Plan, error) {
	r, err := optimize.FarMinRecc(ctx, g.inner(), s, k, opt.internal())
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}

// CenMinRecc (Algorithm 6, REMD) sketches once and wires s to k centers
// chosen by farthest-first traversal. Õ(m/ε² + k·n/ε²) — the fastest
// heuristic, somewhat less effective than FarMinRecc (Figure 9/Table III).
func CenMinRecc(ctx context.Context, g *Graph, s, k int, opt OptimizeOptions) (*Plan, error) {
	r, err := optimize.CenMinRecc(ctx, g.inner(), s, k, opt.internal())
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}

// ChMinRecc (Algorithm 8, REM) adds edges between convex-hull boundary
// nodes, scoring candidates with APPROXRECC. Õ(k·l²·m/ε²).
func ChMinRecc(ctx context.Context, g *Graph, s, k int, opt OptimizeOptions) (*Plan, error) {
	r, err := optimize.ChMinRecc(ctx, g.inner(), s, k, opt.internal())
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}

// MinRecc (Algorithm 9, REM) unions ChMinRecc's hull-pair candidates with
// the direct edge to the farthest hull node and picks the better each round
// — the most effective heuristic in the paper's evaluation.
func MinRecc(ctx context.Context, g *Graph, s, k int, opt OptimizeOptions) (*Plan, error) {
	r, err := optimize.MinRecc(ctx, g.inner(), s, k, opt.internal())
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}

// Baseline names the comparison strategies of §VIII-C.
type Baseline int

const (
	// BaselineDegree is DE-*: connect lowest-degree endpoints.
	BaselineDegree Baseline = iota
	// BaselinePageRank is PK-*: connect lowest-PageRank endpoints.
	BaselinePageRank
	// BaselinePath is PATH-*: connect longest-shortest-path endpoints.
	BaselinePath
	// BaselineRandom adds random admissible edges.
	BaselineRandom
)

// String implements fmt.Stringer.
func (b Baseline) String() string {
	switch b {
	case BaselineDegree:
		return "DE"
	case BaselinePageRank:
		return "PK"
	case BaselinePath:
		return "PATH"
	case BaselineRandom:
		return "RAND"
	default:
		return fmt.Sprintf("Baseline(%d)", int(b))
	}
}

// RunBaseline executes a §VIII-C baseline strategy. Seed is used only by
// BaselineRandom.
func RunBaseline(g *Graph, b Baseline, p Problem, s, k int, seed int64) (*Plan, error) {
	var (
		r   *optimize.Result
		err error
	)
	switch b {
	case BaselineDegree:
		r, err = optimize.Degree(g.inner(), p.internal(), s, k)
	case BaselinePageRank:
		r, err = optimize.PageRank(g.inner(), p.internal(), s, k, pagerank.Options{})
	case BaselinePath:
		r, err = optimize.Path(g.inner(), p.internal(), s, k, optimize.PathOptions{})
	case BaselineRandom:
		r, err = optimize.Random(g.inner(), p.internal(), s, k, seed)
	default:
		return nil, fmt.Errorf("resistecc: unknown baseline %v", b)
	}
	if err != nil {
		return nil, err
	}
	return convPlan(r), nil
}
