// Package ecc implements the paper's primary contribution: exact and
// approximate query algorithms for resistance eccentricity.
//
//   - ExactQuery (Algorithm 1): dense pseudoinverse preprocessing in O(n³),
//     then O(n) per queried node. Ground truth.
//   - ApproxQuery (Algorithm 2): APPROXER sketch, then an O(n·d) scan per
//     queried node; Õ((m + |Q|·n)/ε²) total.
//   - FastQuery (Algorithm 3): APPROXER sketch + APPROXCH hull, then an
//     O(l·d) scan per queried node over the l hull-boundary embeddings;
//     Õ((m + n·l)/ε² + |Q|·l) total with the (1±ε) guarantee of Thm 5.6.
//   - ApproxRecc (Algorithm 7): single-node APPROXER query used inside the
//     optimization loops.
//
// APPROXQUERY and FASTQUERY differ only in the candidate set: Lemma 5.4/5.5
// lets FASTQUERY shrink APPROXQUERY's V to the hull boundary Ŝ. So both are
// a Fast, whose Boundary is Ŝ or, from NewApprox, V, and both run one batch
// kernel. Each index remembers the farthest candidate its batch path found
// for every node it has answered, so a query costs one candidate scan the
// first time an index answers a node and one O(d) resistance after that.
//
// The package also derives the distribution-level metrics of §III-C/§IV:
// resistance eccentricity distribution E(G), resistance radius φ(G),
// resistance diameter R(G) and the resistance center.
package ecc

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/linalg"
	"resistecc/internal/sketch"
)

// Value is one query answer: the (approximate) resistance eccentricity of
// Node and a witness farthest node.
type Value struct {
	Node     int
	Ecc      float64
	Farthest int
}

// Exact holds the EXACTQUERY state: the dense pseudoinverse of the graph
// Laplacian. Building it costs O(n³) time and O(n²) memory; each query then
// costs O(n).
type Exact struct {
	lp *linalg.Dense
}

// NewExact runs the preprocessing step of EXACTQUERY (Algorithm 1, line 1).
func NewExact(g *graph.Graph) (*Exact, error) {
	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		return nil, fmt.Errorf("ecc: exact preprocessing: %w", err)
	}
	return &Exact{lp: lp}, nil
}

// NewExactContext is NewExact gated on ctx: the dense O(n³) inversion is
// not interruptible, so cancellation is honoured only before it starts.
func NewExactContext(ctx context.Context, g *graph.Graph) (*Exact, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ecc: exact preprocessing cancelled: %w", err)
	}
	return NewExact(g)
}

// Pinv exposes the pseudoinverse for callers (the optimizer's exact greedy).
func (e *Exact) Pinv() *linalg.Dense { return e.lp }

// Resistance returns the exact r(u,v).
func (e *Exact) Resistance(u, v int) float64 { return linalg.Resistance(e.lp, u, v) }

// Eccentricity returns the exact c(v) and a farthest node.
func (e *Exact) Eccentricity(v int) Value {
	c, far := linalg.EccentricityFromPinv(e.lp, v)
	return Value{Node: v, Ecc: c, Farthest: far}
}

// Query answers EXACTQUERY(G, Q) for a query node set.
func (e *Exact) Query(q []int) []Value {
	out := make([]Value, len(q))
	for i, v := range q {
		out[i] = e.Eccentricity(v)
	}
	return out
}

// Distribution returns the exact E(G) = {c(v) : v ∈ V}.
func (e *Exact) Distribution() []float64 {
	out := make([]float64, e.lp.N)
	for v := 0; v < e.lp.N; v++ {
		out[v], _ = linalg.EccentricityFromPinv(e.lp, v)
	}
	return out
}

// NewApproxContext runs APPROXER (Algorithm 2, lines 1-2) and returns the
// APPROXQUERY index: a Fast whose Boundary is all n nodes, with no hull.
// The sketch build stops before its next block of rows once ctx is
// cancelled. g must be connected (graph.ErrDisconnected otherwise):
// resistance between two components is infinite, and no sketch can say so.
func NewApproxContext(ctx context.Context, g *graph.Graph, opt sketch.Options) (*Fast, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("ecc: approx preprocessing requires a connected graph: %w", graph.ErrDisconnected)
	}
	sk, err := sketch.NewContext(ctx, g.ToCSR(), opt)
	if err != nil {
		return nil, fmt.Errorf("ecc: approx preprocessing: %w", err)
	}
	return &Fast{Sk: sk, Boundary: identity(sk.N)}, nil
}

// FastOptions configures FASTQUERY.
type FastOptions struct {
	// Sketch configures APPROXER. Sketch.Epsilon is the overall ε; the hull
	// parameter defaults to θ = ε/12 per Algorithm 3.
	Sketch sketch.Options
	// Hull overrides APPROXCH options. Zero Theta means ε/12.
	Hull hull.Options
}

// Fast holds the state of FASTQUERY, and of APPROXQUERY: a sketch plus the
// candidate nodes every query scans.
type Fast struct {
	Sk *sketch.Sketch
	// Boundary holds the candidates. For FASTQUERY it is Ŝ: the node ids
	// whose embeddings lie on (an approximation of) the convex-hull boundary
	// of the embedded point set. For APPROXQUERY it is V, in node order.
	Boundary []int
	// HullInfo reports diagnostics from APPROXCH; nil for APPROXQUERY.
	HullInfo *hull.Result

	// far is the farthest-witness table of QueryBatch, installed by its
	// first call: far[v] holds 1 + the candidate that v's first batched
	// query found farthest, and 0 while v is unanswered. A witness never
	// changes once stored, because Sk and Boundary never do.
	far atomic.Pointer[[]atomic.Uint32]
}

// NewFastContext runs the preprocessing of FASTQUERY (Algorithm 3, lines
// 1-4): the APPROXER sketch followed by APPROXCH on the embedded points.
// The dominant sketch stage stops before its next block of solver rows
// once ctx is cancelled, so background rebuilds (the lifecycle manager) can
// be torn down mid-flight. Like NewApproxContext, it fails with
// graph.ErrDisconnected unless g is connected.
func NewFastContext(ctx context.Context, g *graph.Graph, opt FastOptions) (*Fast, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("ecc: fast preprocessing requires a connected graph: %w", graph.ErrDisconnected)
	}
	hopt, err := hullOptions(opt)
	if err != nil {
		return nil, err
	}
	sk, err := sketch.NewContext(ctx, g.ToCSR(), opt.Sketch)
	if err != nil {
		return nil, fmt.Errorf("ecc: fast preprocessing (sketch): %w", err)
	}
	return NewFastFromSketch(sk, hopt)
}

// hullOptions resolves the APPROXCH parameters from FastOptions, applying
// the paper's θ = ε/12 default and a seed derived from the sketch seed so a
// rebuild of the same graph with the same options is bit-identical. When
// neither an explicit Theta nor a positive Epsilon is available (the
// WithDim-without-WithEpsilon misconfiguration), there is nothing sane to
// derive θ from, so it fails with sketch.ErrBadEpsilon instead of handing
// APPROXCH a degenerate θ = 0 hull.
func hullOptions(opt FastOptions) (hull.Options, error) {
	hopt := opt.Hull
	if hopt.Theta <= 0 {
		if opt.Sketch.Epsilon <= 0 {
			return hull.Options{}, fmt.Errorf("ecc: cannot derive hull θ = ε/12: %w", sketch.ErrBadEpsilon)
		}
		hopt.Theta = opt.Sketch.Epsilon / 12
	}
	if hopt.Seed == 0 {
		hopt.Seed = opt.Sketch.Seed + 1
	}
	return hopt, nil
}

// NewFastFromSketch assembles FASTQUERY state from an existing sketch by
// running APPROXCH on its embedded points. The lifecycle manager uses it to
// re-derive the hull boundary after an incremental embedding update without
// re-sketching. hopt must already be fully resolved (no zero Theta).
func NewFastFromSketch(sk *sketch.Sketch, hopt hull.Options) (*Fast, error) {
	hres, err := hull.Approx(sk.Points(), hopt)
	if err != nil {
		return nil, fmt.Errorf("ecc: fast preprocessing (hull): %w", err)
	}
	return &Fast{Sk: sk, Boundary: hres.Vertices, HullInfo: hres}, nil
}

// HullOptionsFor exposes the resolved hull options for a FastOptions, so
// callers rebuilding the hull incrementally use the exact parameters a full
// build would. It fails with sketch.ErrBadEpsilon when θ cannot be derived.
func HullOptionsFor(opt FastOptions) (hull.Options, error) { return hullOptions(opt) }

// L returns l = |Ŝ|, the number of candidates each query scans.
func (f *Fast) L() int { return len(f.Boundary) }

// witnesses returns the farthest-witness table, installing an empty one on
// first use. Of two callers racing to install it, both use the winner's.
func (f *Fast) witnesses() []atomic.Uint32 {
	if t := f.far.Load(); t != nil {
		return *t
	}
	t := make([]atomic.Uint32, f.Sk.N)
	if f.far.CompareAndSwap(nil, &t) {
		return t
	}
	return *f.far.Load()
}

// Answered counts the nodes whose farthest witness the index holds: the
// distinct nodes QueryBatch has answered. It scans the table, O(n).
func (f *Fast) Answered() int {
	t := f.far.Load()
	if t == nil {
		return 0
	}
	n := 0
	for i := range *t {
		if (*t)[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Eccentricity returns ĉ(v) = max_{u ∈ Ŝ} r̃(v, u) (Algorithm 3, lines 6-7)
// by a full scan of the candidates. It neither reads nor fills the witness
// table, so it is the reference the batch path is tested against.
func (f *Fast) Eccentricity(v int) Value {
	c, far := f.Sk.EccentricityOver(v, f.Boundary)
	return Value{Node: v, Ecc: c, Farthest: far}
}

// Query answers FASTQUERY(G, Q, ε), or APPROXQUERY when Boundary is V. It
// runs on the batched kernel with a pooled scratch buffer and returns a
// freshly allocated slice; results are bit-identical to per-node
// Eccentricity calls. Callers that control buffer lifetime (servers, tight
// loops) should use QueryBatch directly.
func (f *Fast) Query(q []int) []Value {
	buf := GetQueryBuf()
	out := append([]Value(nil), f.QueryBatch(q, buf)...)
	buf.Release()
	return out
}

// Diameter approximates the resistance diameter R(G) = max_{u,v} r(u,v)
// (Eq. 3) by scanning only hull-boundary pairs: the maximizing pair lies on
// the convex-hull boundary of the embedding, so O(l²) sketched distances
// suffice instead of O(n²). ok is false when no pair exists (a boundary of
// fewer than two nodes — single-node or otherwise degenerate hulls), which
// would otherwise be indistinguishable from a genuine answer (0, {0,0}).
func (f *Fast) Diameter() (diam float64, pair graph.Edge, ok bool) {
	for i := 0; i < len(f.Boundary); i++ {
		for j := i + 1; j < len(f.Boundary); j++ {
			u, v := f.Boundary[i], f.Boundary[j]
			if r := f.Sk.Resistance(u, v); !ok || r > diam {
				diam = r
				pair = graph.Edge{U: u, V: v}.Canon()
				ok = true
			}
		}
	}
	return diam, pair, ok
}

// Distribution returns the approximate E(G) in Õ((m+nl)/ε²) total time
// (Õ(n²/ε²) for APPROXQUERY), answered by QueryBatch on the shared batch
// pool. The first call fills the witness table for every node, so later
// calls cost O(n·d).
func (f *Fast) Distribution() []float64 {
	return eccOf(f.QueryBatch(identity(f.Sk.N), new(QueryBuf)))
}

// eccOf extracts the eccentricities of a whole-graph batch answer.
func eccOf(vals []Value) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v.Ecc
	}
	return out
}

// identity returns [0, 1, …, n-1]: the source list for whole-graph batch
// scans, and APPROXQUERY's candidate set.
func identity(n int) []int {
	srcs := make([]int, n)
	for i := range srcs {
		srcs[i] = i
	}
	return srcs
}

// ApproxRecc is Algorithm 7: a one-shot approximate resistance eccentricity
// of a single source, via a fresh APPROXER sketch. The optimization
// algorithms CHMINRECC/MINRECC call this on candidate-augmented graphs, once
// per candidate per round, so the ctx threads cancellation into each inner
// rebuild.
func ApproxRecc(ctx context.Context, g *graph.Graph, s int, opt sketch.Options) (float64, error) {
	sk, err := sketch.NewContext(ctx, g.ToCSR(), opt)
	if err != nil {
		return 0, fmt.Errorf("ecc: ApproxRecc: %w", err)
	}
	c, _ := sk.Eccentricity(s)
	return c, nil
}

// Summary aggregates a resistance eccentricity distribution into the
// graph-level metrics of §III-C.
type Summary struct {
	// Radius is φ(G) = min_v c(v) (Eq. 4).
	Radius float64
	// Diameter is R(G) = max_v c(v) (Eq. 3; R = max_v c(v) by §IV-A).
	Diameter float64
	// Center lists the resistance-central nodes: {u : c(u) = φ(G)} up to
	// CenterTol relative slack for approximate inputs.
	Center []int
	// Mean and Skewness describe the distribution shape (§IV-B analyses
	// asymmetry/right-skew).
	Mean     float64
	Skewness float64
}

// CenterTol is the relative tolerance used to collect resistance-central
// nodes from (possibly approximate) eccentricity values.
const CenterTol = 1e-9

// Summarize computes Summary from a distribution vector (index = node).
func Summarize(dist []float64) Summary {
	var s Summary
	if len(dist) == 0 {
		return s
	}
	s.Radius, s.Diameter = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, c := range dist {
		if c < s.Radius {
			s.Radius = c
		}
		if c > s.Diameter {
			s.Diameter = c
		}
		sum += c
	}
	s.Mean = sum / float64(len(dist))
	// Sample skewness g1 = m3 / m2^{3/2}.
	var m2, m3 float64
	for _, c := range dist {
		d := c - s.Mean
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= float64(len(dist))
	m3 /= float64(len(dist))
	if m2 > 0 {
		s.Skewness = m3 / math.Pow(m2, 1.5)
	}
	tol := CenterTol * math.Max(1, math.Abs(s.Radius))
	for v, c := range dist {
		if c-s.Radius <= tol {
			s.Center = append(s.Center, v)
		}
	}
	return s
}

// RelativeError computes σ of Eq. (8): the mean relative deviation of the
// approximate distribution from the exact one. Slices must align by node.
func RelativeError(approx, exact []float64) (float64, error) {
	if len(approx) != len(exact) {
		return 0, fmt.Errorf("ecc: distribution length mismatch: %d vs %d", len(approx), len(exact))
	}
	if len(exact) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, c := range exact {
		if c == 0 {
			return 0, fmt.Errorf("ecc: exact eccentricity of node %d is zero", i)
		}
		sum += math.Abs(approx[i]-c) / c
	}
	return sum / float64(len(exact)), nil
}
