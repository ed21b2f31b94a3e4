package resistecc

import (
	"context"

	"resistecc/internal/ecc"
	"resistecc/internal/hull"
)

// HullOptions configures the APPROXCH approximate convex hull used by
// FastIndex, DynamicIndex and the REM optimizers. The zero value derives
// every parameter from the sketch: θ = ε/12 (Algorithm 3) and a seed tied to
// the sketch seed so rebuilds are bit-identical.
type HullOptions struct {
	// Theta is the coverage parameter θ ∈ (0,1); 0 means ε/12.
	Theta float64
	// Seed drives the random seeding directions; 0 derives from the sketch
	// seed.
	Seed int64
	// Directions is the number of random seeding directions; 0 means
	// min(2d+8, 64).
	Directions int
	// MaxVertices caps the boundary size l = |Ŝ|; 0 means no cap. A binding
	// cap may void the θ-coverage certificate (see IndexBuildStats).
	MaxVertices int
	// MaxFWIters caps Frank–Wolfe iterations per distance query; 0 derives
	// ⌈1/θ²⌉ clamped to [16, 4096].
	MaxFWIters int
}

func (h HullOptions) internal() hull.Options {
	return hull.Options{
		Theta:       h.Theta,
		Seed:        h.Seed,
		Directions:  h.Directions,
		MaxVertices: h.MaxVertices,
		MaxFWIters:  h.MaxFWIters,
	}
}

// buildConfig is the accumulated result of applying Options.
type buildConfig struct {
	sk   SketchOptions
	hull HullOptions

	// DynamicIndex-only knobs.
	driftThreshold float64
	maxDeletions   int
	queueSize      int
	follower       bool
}

// Option configures an index constructor (NewFastIndex, NewApproxIndex,
// NewDynamicIndex). Options compose left to right; later options win.
type Option func(*buildConfig)

// WithEpsilon sets the multiplicative error target ε ∈ (0,1). Required for
// every approximate index; constructors fail with ErrBadEpsilon otherwise.
func WithEpsilon(eps float64) Option {
	return func(c *buildConfig) { c.sk.Epsilon = eps }
}

// WithDim overrides the sketch dimension d; 0 uses the conservative
// theoretical ⌈24 ln n/ε²⌉.
func WithDim(d int) Option {
	return func(c *buildConfig) { c.sk.Dim = d }
}

// WithSeed makes the sketch (and the derived hull) deterministic.
func WithSeed(seed int64) Option {
	return func(c *buildConfig) { c.sk.Seed = seed }
}

// WithMaxHullVertices caps the hull boundary size l (0 = no cap).
func WithMaxHullVertices(l int) Option {
	return func(c *buildConfig) { c.hull.MaxVertices = l }
}

// WithDriftThreshold sets the ε_drift rebuild trigger of a DynamicIndex:
// once the accumulated incremental-update drift exceeds it, a background
// rebuild is scheduled (0 = 0.5). Ignored by static indexes.
func WithDriftThreshold(d float64) Option {
	return func(c *buildConfig) { c.driftThreshold = d }
}

// WithMaxDeletions sets how many edge removals a DynamicIndex serves
// incrementally before forcing a background rebuild (0 = 16). Ignored by
// static indexes.
func WithMaxDeletions(k int) Option {
	return func(c *buildConfig) { c.maxDeletions = k }
}

// WithMutationQueue sets the DynamicIndex mutation queue capacity (0 = 64).
// Ignored by static indexes.
func WithMutationQueue(n int) Option {
	return func(c *buildConfig) { c.queueSize = n }
}

// WithFollower puts a DynamicIndex in follower mode: it never schedules
// local rebuilds, so its state is a pure deterministic function of the base
// state it was restored from plus the mutations applied to it. Replication
// replicas use it (with LoadSnapshotBytes) to stay bit-identical to the
// writer; a follower that cannot absorb a mutation incrementally stays
// stale until its owner restores a fresher snapshot. Ignored by static
// indexes.
func WithFollower() Option {
	return func(c *buildConfig) { c.follower = true }
}

func applyOptions(opts []Option) buildConfig {
	var c buildConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c buildConfig) fastOptions() ecc.FastOptions {
	return ecc.FastOptions{Sketch: c.sk.internal(), Hull: c.hull.internal()}
}

// NewExactIndex builds the exact index (EXACTQUERY, Algorithm 1) from a
// dense Laplacian pseudoinverse: O(n³) time, O(n²) memory. The context
// cancels the build. This is the successor of (*Graph).NewExactIndex.
func NewExactIndex(ctx context.Context, g *Graph) (*ExactIndex, error) {
	ex, err := ecc.NewExactContext(ctx, g.inner())
	if err != nil {
		return nil, err
	}
	return &ExactIndex{ex: ex}, nil
}

// NewApproxIndex builds the APPROXQUERY index (Algorithm 2): the APPROXER
// sketch, queries by full scan. WithEpsilon is required. The context cancels
// the build between solver rows. Successor of (*Graph).NewApproxIndex.
func NewApproxIndex(ctx context.Context, g *Graph, opts ...Option) (*ApproxIndex, error) {
	c := applyOptions(opts)
	ap, err := ecc.NewApproxContext(ctx, g.inner(), c.sk.internal())
	if err != nil {
		return nil, err
	}
	return &ApproxIndex{ap: ap}, nil
}

// NewFastIndex builds the FASTQUERY index (Algorithm 3): the APPROXER
// sketch plus the APPROXCH hull boundary, so each query scans only l
// boundary nodes. WithEpsilon is required. The context cancels the build
// between solver rows. Successor of (*Graph).NewFastIndex.
func NewFastIndex(ctx context.Context, g *Graph, opts ...Option) (*FastIndex, error) {
	c := applyOptions(opts)
	f, err := ecc.NewFastContext(ctx, g.inner(), c.fastOptions())
	if err != nil {
		return nil, err
	}
	return &FastIndex{f: f}, nil
}
