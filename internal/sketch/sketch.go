//recclint:deterministic — the build must be bit-identical for identical options (rebuild == cold build).

// Package sketch implements APPROXER, the Spielman–Srivastava
// Johnson–Lindenstrauss sketch of effective resistances (Lemma 5.1 of the
// paper, following reference [1]).
//
// The sketch is the d×n matrix X̃ = Q·B·L†, where B is the m×n signed
// edge–node incidence matrix, L† the Laplacian pseudoinverse and Q a d×m
// random ±1/√d projection with d = ⌈24 ln n / ε²⌉. With probability at least
// 1 − 1/n it holds simultaneously for all pairs u, v that
//
//	(1−ε) r(u,v) ≤ ‖X̃(e_u − e_v)‖² ≤ (1+ε) r(u,v).
//
// Each of the d rows costs one O(m) projection push (Bᵀqᵢ) plus one
// Laplacian solve, so the total cost is Õ(m/ε²) with a near-linear solver.
// The rows are solved solver.Lanes at a time through Lap.SolveLanes: each
// CG step then reads the CSR once for four rows, and each row's arithmetic
// is what a solve of its own would do, so the sketch is bit-identical to a
// row-by-row build. On the Politician proxy at d = 128 the build took
// 2.4–2.8× less time than row by row, and the Laplacian product's share of
// its CPU fell from 65% to 55%. Drawing the signs and pushing them through
// Bᵀ is now about 15% of it.
//
// The blocks of four rows are independent, so par.For spreads them over
// min(GOMAXPROCS, blocks) workers, each with its own solver and lane
// buffer. Each block writes only its own rows and its own error slot, so
// neither the sketch nor its BuildStats depends on the worker count, and a
// failed build reports its lowest failing row.
//
// The sketch keeps Q itself, one sign bit per edge and row, so that edge
// updates (update.go) give the exact sketch of the mutated graph.
//
// Columns of X̃ embed the nodes as points in R^d whose squared Euclidean
// distances approximate resistance distances — the geometric view that
// FASTQUERY's convex-hull pruning (package hull) builds on.
package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"

	"resistecc/internal/graph"
	"resistecc/internal/par"
	"resistecc/internal/solver"
)

// ErrBadEpsilon is returned when the error target ε lies outside (0,1).
var ErrBadEpsilon = errors.New("sketch: epsilon must be in (0,1)")

// Options configures APPROXER.
type Options struct {
	// Epsilon is the multiplicative error target ε ∈ (0,1). Required.
	Epsilon float64
	// Dim overrides the sketch dimension d. Zero uses the theoretical
	// ⌈24 ln n / ε²⌉ of Lemma 5.1 — extremely conservative in practice; the
	// experiments harness uses overrides (ablation 2 in DESIGN.md measures
	// the dimension/accuracy trade-off).
	Dim int
	// Seed drives the random projection. The same seed yields the same
	// sketch for the same graph, keeping experiments reproducible.
	Seed int64
	// Solver configures the underlying Laplacian solves.
	Solver solver.Options
}

// TheoreticalDim returns ⌈24 ln n / ε²⌉, the JL dimension of Lemma 5.1.
func TheoreticalDim(n int, epsilon float64) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(24 * math.Log(float64(n)) / (epsilon * epsilon)))
}

// BuildStats aggregates the Laplacian-solver effort spent building a
// sketch: one CG solve per sketch row. Serving layers surface these in
// health and metrics endpoints, and they quantify the solver side of the
// Õ(m/ε²) preprocessing bound.
type BuildStats struct {
	// Rows is the number of solves (= sketch dimension d).
	Rows int
	// TotalIters is the summed CG iteration count across rows.
	TotalIters int
	// MaxIters is the worst single row.
	MaxIters int
	// MaxResidual is the worst relative final residual ‖b − Lx‖/‖b‖.
	MaxResidual float64
	// Workers is the solve parallelism actually used.
	Workers int
}

func (st *BuildStats) merge(o BuildStats) {
	st.Rows += o.Rows
	st.TotalIters += o.TotalIters
	if o.MaxIters > st.MaxIters {
		st.MaxIters = o.MaxIters
	}
	if o.MaxResidual > st.MaxResidual {
		st.MaxResidual = o.MaxResidual
	}
}

// Sketch is the computed X̃ with columns as node embeddings.
type Sketch struct {
	// Dim is the sketch dimension d.
	Dim int
	// N is the number of nodes.
	N int
	// Epsilon echoes the error parameter the sketch was built for.
	Epsilon float64
	// Seed is the build's seed; the columns of Q for edges added later are
	// drawn from it (see update.go).
	Seed int64
	// Stats records the solver effort of the build.
	Stats BuildStats
	// Updates counts the incremental edge updates applied since the last
	// full build.
	Updates int
	// pts holds the node embeddings: pts[v] is the d-vector X̃[:,v].
	pts [][]float64
	// proj is Q, with one column per edge of the graph the sketch reflects.
	proj projection
}

// NewContext runs APPROXER(G, ε) on the CSR snapshot and returns the sketch.
// The build checks ctx before each block of solver.Lanes rows and fails
// with an error wrapping ctx.Err(), so background index rebuilds (the
// lifecycle manager) and optimizer loops can be torn down mid-flight
// without finishing the remaining Õ(m/ε²) work. A failed solve names the
// lowest failing row.
func NewContext(ctx context.Context, csr *graph.CSR, opt Options) (*Sketch, error) {
	if opt.Epsilon <= 0 || opt.Epsilon >= 1 {
		return nil, fmt.Errorf("%w, got %g", ErrBadEpsilon, opt.Epsilon)
	}
	n := csr.N
	d := opt.Dim
	if d <= 0 {
		d = TheoreticalDim(n, opt.Epsilon)
	}
	sk := &Sketch{Dim: d, N: n, Epsilon: opt.Epsilon, Seed: opt.Seed}
	sk.pts = make([][]float64, n)
	flat := make([]float64, n*d)
	for v := 0; v < n; v++ {
		sk.pts[v] = flat[v*d : (v+1)*d]
	}
	sk.proj = newProjection(d, csr.M)
	if n == 0 {
		return sk, nil
	}

	// Row i of X̃ is the solution of L x = Bᵀ qᵢ with qᵢ a random ±1/√d
	// m-vector drawn from row i's own seeded stream and kept as row i of the
	// sketch's projection. The rows are solved Lanes at a time, block k
	// holding rows Lanes·k … Lanes·k+Lanes−1, and the blocks are spread over
	// min(GOMAXPROCS, blocks) workers, each with its own solver, lane buffer
	// and stats.
	blocks := (d + solver.Lanes - 1) / solver.Lanes
	workers := min(runtime.GOMAXPROCS(0), blocks)
	laps := make([]*solver.Lap, workers)
	lanes := make([][][solver.Lanes]float64, workers)
	stats := make([]BuildStats, workers)
	// Row i's signs are the stream of a source seeded with
	// opt.Seed + i·0x9E3779B9. Reseeding one source per worker for each row
	// gives that stream without a new source's ~5 KB of state per row.
	rngs := make([]*rand.Rand, workers)
	for w := range laps {
		lap, err := solver.NewLap(csr, opt.Solver)
		if err != nil {
			return nil, err
		}
		laps[w], lanes[w], rngs[w] = lap, make([][solver.Lanes]float64, n), rand.New(rand.NewSource(0))
	}

	// A failed block skips only the blocks above it, and the build reports
	// the lowest failure: blocks are handed out in increasing order, so
	// every block below the lowest failing one has run, whatever the
	// scheduling, and the error names the same row every time.
	scale := 1 / math.Sqrt(float64(d))
	errs := make([]error, blocks)
	var lowestFailed atomic.Int64
	lowestFailed.Store(int64(blocks))
	fail := func(k int, err error) {
		errs[k] = err
		for {
			cur := lowestFailed.Load()
			if int64(k) >= cur || lowestFailed.CompareAndSwap(cur, int64(k)) {
				return
			}
		}
	}
	par.For(blocks, workers, func(w, k int) {
		if int64(k) > lowestFailed.Load() {
			return
		}
		if err := ctx.Err(); err != nil {
			fail(k, fmt.Errorf("sketch: build cancelled: %w", err))
			return
		}
		x := lanes[w]
		i0 := k * solver.Lanes
		rows := min(solver.Lanes, d-i0)
		var signs [solver.Lanes][]uint64
		for j := 0; j < rows; j++ {
			rngs[w].Seed(opt.Seed + int64(i0+j)*0x9E3779B9)
			sk.proj.drawRow(i0+j, rngs[w])
			signs[j] = sk.proj.row(i0 + j)
		}
		pushIncidence(csr, &signs, scale, x)
		var st [solver.Lanes]solver.LaneStats
		if err := laps[w].SolveLanes(x, x, &st); err != nil {
			for j := range st {
				if st[j].Err != nil {
					err = fmt.Errorf("sketch: row %d: %w", i0+j, st[j].Err)
					break
				}
			}
			fail(k, err)
			return
		}
		for j := 0; j < rows; j++ {
			stats[w].merge(BuildStats{Rows: 1, TotalIters: st[j].Iters, MaxIters: st[j].Iters, MaxResidual: st[j].Residual})
		}
		for v := 0; v < n; v++ {
			copy(sk.pts[v][i0:i0+rows], x[v][:rows])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sk.Stats.Workers = workers
	for _, st := range stats {
		sk.Stats.merge(st)
	}
	return sk, nil
}

// pushIncidence writes Bᵀqⱼ into lane j of b for each lane with a sign row
// in signs, and zero into the others. B is the signed incidence matrix with
// each edge oriented u→v for u < v, taken in CSR order, and qⱼ is ±scale
// per edge, negative where bit e of signs[j] is set. Each lane receives the
// additions of b[u] += q, b[v] −= q edge by edge, in that order.
func pushIncidence(csr *graph.CSR, signs *[solver.Lanes][]uint64, scale float64, b [][solver.Lanes]float64) {
	clear(b)
	pos := math.Float64bits(scale)
	e := 0
	for u := 0; u < csr.N; u++ {
		for _, v := range csr.Neighbors(u) {
			if int32(u) >= v {
				continue
			}
			bu, bv := &b[u], &b[v]
			w, o := e>>6, uint(e&63)
			for j, row := range signs {
				if row == nil {
					continue
				}
				q := math.Float64frombits(pos | (row[w]>>o&1)<<63)
				bu[j] += q
				bv[j] -= q
			}
			e++
		}
	}
}

// Point returns the embedding X̃[:,v] of node v. Shared storage; read-only.
func (s *Sketch) Point(v int) []float64 { return s.pts[v] }

// Points returns all node embeddings indexed by node. Shared storage.
func (s *Sketch) Points() [][]float64 { return s.pts }

// Resistance returns r̃(u,v) = ‖X̃(e_u − e_v)‖², the sketched resistance
// distance between u and v (Algorithm 2, line 4).
func (s *Sketch) Resistance(u, v int) float64 {
	pu, pv := s.pts[u], s.pts[v]
	r := 0.0
	for i, x := range pu {
		dx := x - pv[i]
		r += dx * dx
	}
	return r
}

// Eccentricity scans all nodes and returns
// c̄(s) = max_{j != src} r̃(src, j) together with the farthest node: the
// whole of APPROXRECC (Algorithm 7), and the reference the tests hold
// APPROXQUERY's batch path to. The index answers APPROXQUERY through
// EccentricityBatch over all n nodes, which sums each pair in the same
// order and keeps the same (earliest) maximum.
func (s *Sketch) Eccentricity(src int) (float64, int) {
	best, arg := 0.0, src
	for v := 0; v < s.N; v++ {
		if v == src {
			continue
		}
		if r := s.Resistance(src, v); r > best {
			best, arg = r, v
		}
	}
	return best, arg
}

// EccentricityOver scans only the candidate node set (FASTQUERY's hull
// boundary Ŝ) and returns ĉ(src) = max_{j ∈ cand} r̃(src, j) with the
// argmax. Nodes equal to src are skipped.
func (s *Sketch) EccentricityOver(src int, cand []int) (float64, int) {
	best, arg := 0.0, src
	for _, v := range cand {
		if v == src {
			continue
		}
		if r := s.Resistance(src, v); r > best {
			best, arg = r, v
		}
	}
	return best, arg
}
