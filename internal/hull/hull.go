//recclint:deterministic — the boundary is stored in snapshots: identical points and options must give an identical Result, whatever the worker count.

// Package hull implements APPROXCH (Lemma 5.3 of the paper, after
// Awasthi–Kalantari–Zhang's robust vertex enumeration): given n points in
// R^d and an error parameter θ ∈ (0,1), it returns a small subset Ŝ such
// that every input point lies within θ·D(S) of conv(Ŝ), where D(S) is the
// point-set diameter.
//
// The construction is AVTA-style:
//
//  1. Seeding — extreme points along the approximate-diameter axis and a
//     batch of random directions. The argmax of a linear functional is
//     always a true hull vertex, so seeds are exact extreme points.
//  2. Greedy refinement — repeatedly find the point farthest from the
//     current conv(Ŝ) (distance computed by Frank–Wolfe, a.k.a. the
//     triangle algorithm, with certified upper/lower bounds) and insert it,
//     until every point is certified within θ·D̂.
//
// Distances to a growing hull are non-increasing, so once a point is
// certified covered it is never re-examined; the total work matches the
// O(n·l·(d + θ⁻²)) of Lemma 5.3 with l = |Ŝ|.
//
// Frank–Wolfe runs in Gram coordinates. Its iterate is always a convex
// combination y = Σ λ_a q_a of hull vertices, so it is carried as the
// weights λ, the inner products v_a = ⟨y,q_a⟩, ⟨y,y⟩ and ⟨y,p⟩. Given the
// hull's Gram matrix and ⟨p,q_a⟩, each step (linear minimisation, duality
// gap, exact line search, ‖y−p‖²) costs O(l) instead of O(l·d). A point is
// declared covered only after y is materialised in R^d and ‖y−p‖ ≤ θ·D̂ is
// checked there. Per refinement round the cost is:
//
//   - O(n·l·d) for the exact nearest-vertex start, which also yields ⟨p,q_a⟩;
//   - O(l) per Frank–Wolfe step;
//   - O(l·d) per inserted vertex, for its row of the Gram matrix, which
//     keeps only its lower triangle, one row per vertex (≈ l²/2 doubles).
//
// Given the hull, points are independent, so each round runs them on
// runtime.GOMAXPROCS(0) workers. A worker writes only its own points'
// slots, and the uncovered points are collected in index order, so the
// Result does not depend on the worker count.
//
// FASTQUERY uses Ŝ to restrict farthest-point queries: the node farthest
// from any query point lies on the hull boundary, so scanning Ŝ (size l ≪ n)
// replaces scanning all n embeddings (Lemma 5.4/5.5).
package hull

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures APPROXCH.
type Options struct {
	// Theta is the coverage parameter θ ∈ (0,1); FASTQUERY passes ε/12.
	Theta float64
	// Seed drives the random seeding directions.
	Seed int64
	// Directions is the number of random seeding directions; zero means
	// min(2d+8, 64). More directions trade seeding time for fewer (more
	// expensive) refinement rounds.
	Directions int
	// MaxVertices caps |Ŝ|; zero means no cap. When the cap binds, the
	// θ-coverage guarantee may be violated; Result.Certified reports it.
	MaxVertices int
	// MaxFWIters caps Frank–Wolfe iterations per distance query; zero means
	// ⌈1/θ²⌉ clamped to [16, 4096], matching the θ⁻² term of Lemma 5.3.
	MaxFWIters int
	// BatchInsert caps how many uncovered vertices a refinement round may
	// insert at once (mutually separated by > 2θ·D̂, so none could have
	// covered another). Zero means 16; 1 recovers the textbook one-at-a-time
	// greedy. Batching only ever grows Ŝ ⊆ S, never weakens coverage.
	BatchInsert int
	// SkipRefine disables stage 2 (pure directional sampling). Used by the
	// hull ablation bench; leaves Certified false.
	SkipRefine bool
}

// Result is the output of Approx.
type Result struct {
	// Vertices lists the indices (into the input point set) of Ŝ.
	Vertices []int
	// Diameter is the estimated point-set diameter D̂ ≤ D(S) used for the
	// coverage threshold (a lower bound makes the threshold conservative).
	Diameter float64
	// Certified reports whether every point was certified within θ·D̂ of
	// conv(Ŝ) when refinement finished (false if MaxVertices bound first or
	// SkipRefine was set).
	Certified bool
	// Rounds is the number of greedy refinement insertions performed.
	Rounds int
}

// Approx runs APPROXCH(S, θ) on pts, where pts[i] is the i-th point in R^d.
// All points must share one dimension d >= 1.
func Approx(pts [][]float64, opt Options) (*Result, error) {
	n := len(pts)
	if n == 0 {
		return &Result{Certified: true}, nil
	}
	d := len(pts[0])
	if d == 0 {
		return nil, fmt.Errorf("hull: zero-dimensional points")
	}
	if opt.Theta <= 0 || opt.Theta >= 1 {
		return nil, fmt.Errorf("hull: theta must be in (0,1), got %g", opt.Theta)
	}
	for i, p := range pts {
		if len(p) != d {
			return nil, fmt.Errorf("hull: point %d has dim %d, want %d", i, len(p), d)
		}
	}

	res := &Result{}
	in := make([]bool, n) // membership of Ŝ
	var hullIdx []int
	full := func() bool { return opt.MaxVertices > 0 && len(hullIdx) >= opt.MaxVertices }
	addVertex := func(i int) {
		if !in[i] {
			in[i] = true
			hullIdx = append(hullIdx, i)
		}
	}

	// --- Stage 0: approximate diameter by double sweep. ---
	a := argmaxDist(pts, pts[0])
	b := argmaxDist(pts, pts[a])
	res.Diameter = math.Sqrt(distSq(pts[a], pts[b]))
	addVertex(a)
	if !full() {
		addVertex(b)
	}
	if res.Diameter == 0 {
		// All points coincide; a single representative covers everything.
		res.Vertices = hullIdx[:1]
		res.Certified = true
		return res, nil
	}

	// --- Stage 1: directional extreme seeding. ---
	dirs := opt.Directions
	if dirs <= 0 {
		dirs = 2*d + 8
		if dirs > 64 {
			dirs = 64
		}
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	dir := make([]float64, d)
	for t := 0; t < dirs && !full(); t++ {
		for j := range dir {
			dir[j] = rng.NormFloat64()
		}
		addVertex(argmaxDot(pts, dir))
	}

	if opt.SkipRefine {
		res.Vertices = hullIdx
		return res, nil
	}

	// --- Stage 2: certified greedy refinement. ---
	threshold := opt.Theta * res.Diameter
	maxFW := opt.MaxFWIters
	if maxFW <= 0 {
		maxFW = int(math.Ceil(1 / (opt.Theta * opt.Theta)))
		if maxFW < 16 {
			maxFW = 16
		}
		if maxFW > 4096 {
			maxFW = 4096
		}
	}
	batchCap := opt.BatchInsert
	if batchCap <= 0 {
		batchCap = 16
	}
	g := newGram(pts, a, b)
	fws := make([]fw, runtime.GOMAXPROCS(0))
	covered := make([]bool, n)
	ub := make([]float64, n) // distance upper bound of each uncovered point
	type scored struct {
		idx int
		ub  float64
	}
	var (
		pending   []int
		uncovered []scored
	)
	for !full() {
		g.extend(hullIdx)
		pending = pending[:0]
		for i := 0; i < n; i++ {
			if !covered[i] && !in[i] {
				pending = append(pending, i)
			}
		}
		for w := range fws {
			fws[w].size(len(hullIdx), d)
		}
		fanOut(len(pending), len(fws), func(w, k int) {
			i := pending[k]
			ub[i], _, covered[i] = fws[w].distToHull(g, pts[i], threshold, maxFW)
		})
		uncovered = uncovered[:0]
		for _, i := range pending {
			if !covered[i] {
				uncovered = append(uncovered, scored{i, ub[i]})
			}
		}
		if len(uncovered) == 0 {
			res.Certified = true
			break
		}
		// Insert a spaced batch: points within 2θ·D̂ of an accepted one may
		// become covered by it, so only mutually distant candidates go in
		// together. Candidates are taken in decreasing distance-to-hull.
		sort.Slice(uncovered, func(a, b int) bool { return uncovered[a].ub > uncovered[b].ub })
		var accepted []int
		for _, cand := range uncovered {
			if len(accepted) >= batchCap {
				break
			}
			if opt.MaxVertices > 0 && len(hullIdx)+len(accepted) >= opt.MaxVertices {
				break
			}
			ok := true
			for _, a := range accepted {
				if distSq(pts[cand.idx], pts[a]) <= 4*threshold*threshold {
					ok = false
					break
				}
			}
			if ok {
				accepted = append(accepted, cand.idx)
			}
		}
		for _, a := range accepted {
			addVertex(a)
		}
		res.Rounds++
	}
	res.Vertices = hullIdx
	return res, nil
}

// fanOut calls visit(w, k) once for every k in [0, n), spread over at most
// workers goroutines; w ∈ [0, workers) names the goroutine making the call,
// so visit can use per-worker scratch. It returns once every call has.
func fanOut(n, workers int, visit func(w, k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			visit(0, k)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				visit(w, k)
			}
		}()
	}
	wg.Wait()
}

//recclint:hotpath
func argmaxDist(pts [][]float64, from []float64) int {
	best, arg := -1.0, 0
	for i, p := range pts {
		if d := distSq(p, from); d > best {
			best, arg = d, i
		}
	}
	return arg
}

//recclint:hotpath
func argmaxDot(pts [][]float64, dir []float64) int {
	best, arg := math.Inf(-1), 0
	for i, p := range pts {
		s := 0.0
		for j, v := range dir {
			s += v * p[j]
		}
		if s > best {
			best, arg = s, i
		}
	}
	return arg
}

//recclint:hotpath
func distSq(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// gram is the Gram matrix of the hull vertices q_a = pts[idx[a]], taken
// about the centre c (the midpoint of the diameter pair, so entries stay
// O(D²) whatever the input's offset). It keeps the lower triangle only: row
// a holds ⟨q_a−c, q_b−c⟩ for b ≤ a, and each inserted vertex appends its
// own row, so the matrix is never copied as it grows.
type gram struct {
	pts  [][]float64
	idx  []int
	c    []float64
	rows [][]float64
}

func newGram(pts [][]float64, a, b int) *gram {
	c := make([]float64, len(pts[a]))
	for j := range c {
		c[j] = (pts[a][j] + pts[b][j]) / 2
	}
	return &gram{pts: pts, c: c}
}

// extend appends a row for every vertex of hullIdx beyond those it holds.
func (g *gram) extend(hullIdx []int) {
	for a := len(g.rows); a < len(hullIdx); a++ {
		qa := g.pts[hullIdx[a]]
		row := make([]float64, a+1)
		for b := range row {
			qb := g.pts[hullIdx[b]]
			s := 0.0
			for j, cj := range g.c {
				s += (qa[j] - cj) * (qb[j] - cj)
			}
			row[b] = s
		}
		g.rows = append(g.rows, row)
	}
	g.idx = hullIdx
}

func (g *gram) diag(a int) float64 { return g.rows[a][a] }

// step moves the iterate toward vertex s by gamma, v ← (1−γ)·v + γ·G[s,:]
// and λ ← (1−γ)·λ + γ·e_s, and returns the next linear-minimisation vertex:
// the first a minimising v_a − pq_a, which is ⟨y−p, q_a−c⟩ up to a term
// that does not depend on a.
//
//recclint:hotpath
func (g *gram) step(s int, gamma float64, v, lam, pq []float64) (arg int, best float64) {
	keep := 1 - gamma
	best, arg = math.Inf(1), -1
	for a, gsa := range g.rows[s] {
		v[a] = keep*v[a] + gamma*gsa
		lam[a] *= keep
		if x := v[a] - pq[a]; x < best {
			best, arg = x, a
		}
	}
	// The rest of row s is column s of the later rows: G[a][s] for a > s.
	for a := s + 1; a < len(v); a++ {
		v[a] = keep*v[a] + gamma*g.rows[a][s]
		lam[a] *= keep
		if x := v[a] - pq[a]; x < best {
			best, arg = x, a
		}
	}
	lam[s] += gamma
	return arg, best
}

// coverSlack widens the Gram-form test ‖y−p‖ ≤ θ·D̂ that triggers the exact
// check in R^d. The Gram form cancels terms of size O(D²) to get ‖y−p‖², so
// it carries O(ε_mach·D²) rounding; an iterate that close to the threshold
// is decided in R^d, as every covering iterate is.
const coverSlack = 1e-9

// fw is one worker's Frank–Wolfe scratch.
type fw struct {
	pq  []float64 // ⟨p−c, q_a−c⟩; first the squared distances ‖p−q_a‖²
	v   []float64 // ⟨y−c, q_a−c⟩
	lam []float64 // y = Σ λ_a q_a
	r   []float64 // y − p in R^d
}

// size makes the scratch fit a hull of l vertices in R^d.
func (f *fw) size(l, d int) {
	if cap(f.pq) < l {
		f.pq = make([]float64, l, 2*l)
		f.v = make([]float64, l, 2*l)
		f.lam = make([]float64, l, 2*l)
	}
	f.pq, f.v, f.lam = f.pq[:l], f.v[:l], f.lam[:l]
	if len(f.r) != d {
		f.r = make([]float64, d)
	}
}

// distToHull estimates dist(p, conv(hull)) by Frank–Wolfe on
// f(y) = ‖y − p‖², started at the hull vertex nearest p. It returns an upper
// bound (the distance from p to the best iterate) and a lower bound from the
// Frank–Wolfe duality gap. It stops as soon as an iterate is within
// earlyStop of p in R^d (covered), or the lower bound exceeds earlyStop
// (certified uncovered; the upper bound then still orders candidates
// usefully), or after maxIters steps. When it reports covered, f.lam holds
// the weights of the covering iterate.
//
//recclint:hotpath
func (f *fw) distToHull(g *gram, p []float64, earlyStop float64, maxIters int) (ub, lb float64, covered bool) {
	pq, v, lam := f.pq, f.v, f.lam
	bestD, start := math.Inf(1), 0
	for a, i := range g.idx {
		dd := distSq(g.pts[i], p)
		pq[a] = dd
		if dd < bestD {
			bestD, start = dd, a
		}
	}
	for a := range lam {
		lam[a] = 0
	}
	lam[start] = 1
	ub = math.Sqrt(bestD)
	if ub <= earlyStop {
		return ub, 0, true
	}
	// ⟨p−c, q_a−c⟩ = (‖p−c‖² + ‖q_a−c‖² − ‖p−q_a‖²) / 2.
	pp := distSq(p, g.c)
	for a := range pq {
		pq[a] = (pp + g.diag(a) - pq[a]) / 2
	}
	// y = q_start: a full step sets v = G[start,:] whatever v held. Then
	// yy = ‖y−c‖², yp = ⟨y−c, p−c⟩ and fy = ‖y−p‖².
	s, sDot := g.step(start, 1, v, lam, pq)
	yy, yp, fy := g.diag(start), pq[start], bestD
	for it := 0; it < maxIters; it++ {
		// The duality gap ⟨∇f(y), y − q_s⟩ = 2·⟨y−p, y − q_s⟩ bounds
		// f(y) − f*.
		gy := yy - yp
		gap := 2 * (gy - sDot)
		if fLow := fy - gap; fLow > 0 {
			lb = math.Sqrt(fLow)
		} else {
			lb = 0
		}
		if lb > earlyStop || gap <= 1e-15 {
			return ub, lb, false
		}
		// Exact line search toward q_s: γ* = ⟨p−y, q_s−y⟩ / ‖q_s−y‖², whose
		// numerator is half the gap and so positive here.
		gss := g.diag(s)
		den := gss - 2*v[s] + yy
		if den <= 0 {
			return ub, lb, false
		}
		gamma := (gy - sDot) / den
		if gamma > 1 {
			gamma = 1
		}
		keep := 1 - gamma
		yy = keep*keep*yy + 2*gamma*keep*v[s] + gamma*gamma*gss
		yp = keep*yp + gamma*pq[s]
		fy = yy - 2*yp + pp
		s, sDot = g.step(s, gamma, v, lam, pq)
		u := 0.0
		if fy > 0 {
			u = math.Sqrt(fy)
		}
		if u <= earlyStop*(1+coverSlack) {
			u = f.materialise(g, p)
			if u <= earlyStop {
				return u, lb, true
			}
		}
		if u < ub {
			ub = u
		}
	}
	return ub, lb, false
}

// materialise forms y − p = Σ λ_a (q_a − c) − (p − c) in R^d and returns its
// norm.
//
//recclint:hotpath
func (f *fw) materialise(g *gram, p []float64) float64 {
	r := f.r
	for j, cj := range g.c {
		r[j] = cj - p[j]
	}
	for a, w := range f.lam {
		if w == 0 {
			continue
		}
		q := g.pts[g.idx[a]]
		for j, cj := range g.c {
			r[j] += w * (q[j] - cj)
		}
	}
	s := 0.0
	for _, x := range r {
		s += x * x
	}
	return math.Sqrt(s)
}
