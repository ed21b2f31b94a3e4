package resistecc

import (
	"fmt"

	"resistecc/internal/ecc"
	"resistecc/internal/sketch"
	"resistecc/internal/stats"
)

// Eccentricity is one query answer: the (approximate) resistance
// eccentricity Value of Node, with a witness Farthest node attaining it.
type Eccentricity struct {
	Node     int
	Value    float64
	Farthest int
}

func convValue(v ecc.Value) Eccentricity {
	return Eccentricity{Node: v.Node, Value: v.Ecc, Farthest: v.Farthest}
}

func convValues(vs []ecc.Value) []Eccentricity {
	out := make([]Eccentricity, len(vs))
	for i, v := range vs {
		out[i] = convValue(v)
	}
	return out
}

// SketchOptions configures the APPROXER resistance sketch underlying the
// approximate indexes and optimizers.
type SketchOptions struct {
	// Epsilon is the multiplicative error target ε ∈ (0,1).
	Epsilon float64
	// Dim overrides the sketch dimension; 0 uses the theoretical
	// ⌈24 ln n/ε²⌉ of the JL lemma, which is very conservative — practical
	// dimensions of 50–200 already achieve sub-percent mean error (see
	// EXPERIMENTS.md).
	Dim int
	// Seed makes the sketch deterministic.
	Seed int64
}

func (o SketchOptions) internal() sketch.Options {
	return sketch.Options{Epsilon: o.Epsilon, Dim: o.Dim, Seed: o.Seed}
}

// TheoreticalSketchDim returns ⌈24 ln n / ε²⌉.
func TheoreticalSketchDim(n int, epsilon float64) int {
	return sketch.TheoreticalDim(n, epsilon)
}

// validateNodes rejects batch queries naming nodes outside [0, n), so a bad
// id surfaces as ErrNodeOutOfRange instead of an index panic.
func validateNodes(nodes []int, n int) error {
	for _, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("resistecc: query node %d with n=%d: %w", v, n, ErrNodeOutOfRange)
		}
	}
	return nil
}

// ExactIndex answers exact resistance-eccentricity queries (EXACTQUERY,
// Algorithm 1). Construction costs O(n³) time and O(n²) memory; suitable up
// to a few tens of thousands of nodes.
type ExactIndex struct {
	ex *ecc.Exact
}

// N returns the node count of the indexed graph.
func (ix *ExactIndex) N() int { return ix.ex.Pinv().N }

// Resistance returns the exact effective resistance r(u, v).
func (ix *ExactIndex) Resistance(u, v int) float64 { return ix.ex.Resistance(u, v) }

// Eccentricity returns the exact c(v).
func (ix *ExactIndex) Eccentricity(v int) Eccentricity { return convValue(ix.ex.Eccentricity(v)) }

// Query answers a batch of eccentricity queries. Any node outside [0, n)
// fails the whole batch with ErrNodeOutOfRange.
func (ix *ExactIndex) Query(nodes []int) ([]Eccentricity, error) {
	if err := validateNodes(nodes, ix.N()); err != nil {
		return nil, err
	}
	return convValues(ix.ex.Query(nodes)), nil
}

// Distribution returns the exact E(G) indexed by node.
func (ix *ExactIndex) Distribution() []float64 { return ix.ex.Distribution() }

// sketchIndex is the query surface ApproxIndex and FastIndex share. Both
// are an ecc.Fast: a sketch plus the candidates each query scans, all n
// nodes for APPROXQUERY and the hull boundary Ŝ for FASTQUERY.
type sketchIndex struct {
	f *ecc.Fast
}

// N returns the node count of the indexed graph.
func (ix *sketchIndex) N() int { return ix.f.Sk.N }

// Resistance returns the sketched r̃(u, v).
func (ix *sketchIndex) Resistance(u, v int) float64 { return ix.f.Sk.Resistance(u, v) }

// Eccentricity returns the sketched eccentricity of v by a full scan of the
// index's candidates: all n nodes (c̄(v)) or the hull boundary (ĉ(v)).
func (ix *sketchIndex) Eccentricity(v int) Eccentricity { return convValue(ix.f.Eccentricity(v)) }

// Query answers a batch of eccentricity queries. Any node outside [0, n)
// fails the whole batch with ErrNodeOutOfRange.
func (ix *sketchIndex) Query(nodes []int) ([]Eccentricity, error) {
	if err := validateNodes(nodes, ix.N()); err != nil {
		return nil, err
	}
	return convValues(ix.f.Query(nodes)), nil
}

// Distribution returns the approximate E(G), in Õ(n²/ε²) total time over
// all n candidates and Õ((m+nl)/ε²) over the hull boundary.
func (ix *sketchIndex) Distribution() []float64 { return ix.f.Distribution() }

// SketchDim reports the dimension d actually used.
func (ix *sketchIndex) SketchDim() int { return ix.f.Sk.Dim }

// ApproxIndex answers (1±ε)-approximate queries by scanning all n sketched
// embeddings per query (APPROXQUERY, Algorithm 2). Like FastIndex, it
// remembers each answered node's farthest node, so asking for a node again
// costs one O(d) resistance.
type ApproxIndex struct {
	sketchIndex
}

// FastIndex is the paper's FASTQUERY (Algorithm 3): the sketch of
// ApproxIndex plus an approximate convex hull of the embedded nodes, so each
// query scans only the l boundary nodes. Guarantees
// (1−ε)c(v) ≤ ĉ(v) ≤ (1+ε)c(v) with high probability (Theorem 5.6).
type FastIndex struct {
	sketchIndex
}

// AnsweredNodes reports how many distinct nodes QueryBatch, Query or
// Distribution has answered on this index. The index remembers each one's
// farthest boundary node, so asking for it again costs one O(d) resistance
// instead of an O(l·d) boundary scan. Each index, and so each DynamicIndex
// generation, starts at 0. The count takes an O(n) scan.
func (ix *FastIndex) AnsweredNodes() int { return ix.f.Answered() }

// BoundarySize reports l = |Ŝ|, the hull-boundary node count each query
// scans — small for real-world networks (§V-C).
func (ix *FastIndex) BoundarySize() int { return ix.f.L() }

// Boundary returns the hull-boundary node ids Ŝ.
func (ix *FastIndex) Boundary() []int { return append([]int(nil), ix.f.Boundary...) }

// ResistanceDiameter approximates R(G) = max_{u,v} r(u,v) by scanning only
// hull-boundary pairs (O(l²) sketched distances) and returns the value with
// a witness pair. A hull boundary with fewer than two nodes has no pair to
// scan and fails with ErrDegenerateHull rather than returning (0, [0 0]),
// which would be indistinguishable from a genuine answer naming node 0.
func (ix *FastIndex) ResistanceDiameter() (float64, [2]int, error) {
	r, e, ok := ix.f.Diameter()
	if !ok {
		return 0, [2]int{}, fmt.Errorf("resistecc: resistance diameter over %d boundary nodes: %w",
			ix.f.L(), ErrDegenerateHull)
	}
	return r, [2]int{e.U, e.V}, nil
}

// IndexBuildStats reports construction-time diagnostics of a FastIndex:
// the solver effort behind the APPROXER sketch (one CG solve per sketch
// row) and the APPROXCH hull outcome. Serving layers (cmd/reccd) surface
// these through health and metrics endpoints.
type IndexBuildStats struct {
	// SketchDim is the sketch dimension d (= number of Laplacian solves).
	SketchDim int
	// SolverWorkers is the solve parallelism used during the build.
	SolverWorkers int
	// SolverTotalIters sums CG iterations across all sketch rows.
	SolverTotalIters int
	// SolverMaxIters is the worst single row.
	SolverMaxIters int
	// SolverMaxResidual is the worst relative final residual ‖b−Lx‖/‖b‖.
	SolverMaxResidual float64
	// HullSize is l = |Ŝ|, the boundary-node count each query scans.
	HullSize int
	// HullCertified reports whether the θ-coverage guarantee held (false
	// when MaxHullVertices bound first).
	HullCertified bool
	// HullRounds is the number of greedy refinement insertions APPROXCH ran.
	HullRounds int
	// HullDiameter is the estimated embedded point-set diameter D̂.
	HullDiameter float64
}

// BuildStats returns the construction diagnostics of the index.
func (ix *FastIndex) BuildStats() IndexBuildStats {
	st := ix.f.Sk.Stats
	out := IndexBuildStats{
		SketchDim:         ix.f.Sk.Dim,
		SolverWorkers:     st.Workers,
		SolverTotalIters:  st.TotalIters,
		SolverMaxIters:    st.MaxIters,
		SolverMaxResidual: st.MaxResidual,
		HullSize:          len(ix.f.Boundary),
	}
	if h := ix.f.HullInfo; h != nil {
		out.HullCertified = h.Certified
		out.HullRounds = h.Rounds
		out.HullDiameter = h.Diameter
	}
	return out
}

// DistributionSummary aggregates an eccentricity distribution into the
// graph-level metrics of §III-C: resistance radius φ(G), resistance diameter
// R(G), the resistance center, and shape statistics.
type DistributionSummary struct {
	Radius   float64
	Diameter float64
	Center   []int
	Mean     float64
	Skewness float64
}

// Summarize computes a DistributionSummary from a distribution vector.
func Summarize(dist []float64) DistributionSummary {
	s := ecc.Summarize(dist)
	return DistributionSummary{
		Radius: s.Radius, Diameter: s.Diameter, Center: s.Center,
		Mean: s.Mean, Skewness: s.Skewness,
	}
}

// RelativeError computes σ (Eq. 8): the mean relative deviation of an
// approximate distribution from the exact one.
func RelativeError(approx, exact []float64) (float64, error) {
	return ecc.RelativeError(approx, exact)
}

// BurrFit is a maximum-likelihood Burr Type XII fit of a distribution
// (§IV-B models E(G) with this family).
type BurrFit struct {
	C, K, Lambda float64
	LogLik       float64
	KS           float64
}

// FitBurr fits the Burr XII family to positive samples by MLE.
func FitBurr(samples []float64) (*BurrFit, error) {
	f, err := stats.FitBurr(samples)
	if err != nil {
		return nil, err
	}
	return &BurrFit{C: f.C, K: f.K, Lambda: f.Lambda, LogLik: f.LogLik, KS: f.KS}, nil
}

// PDF evaluates the fitted Burr density.
func (b *BurrFit) PDF(x float64) float64 {
	return stats.Burr{C: b.C, K: b.K, Lambda: b.Lambda}.PDF(x)
}

// CDF evaluates the fitted Burr distribution function.
func (b *BurrFit) CDF(x float64) float64 {
	return stats.Burr{C: b.C, K: b.K, Lambda: b.Lambda}.CDF(x)
}
