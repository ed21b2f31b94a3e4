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
//     always a true hull vertex, so seeds are exact extreme points. Each
//     pass over the points scores four directions, and par.For spreads the
//     passes over runtime.GOMAXPROCS(0) workers.
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
// combination y = Σ λ_a q_a of hull vertices, so it is carried as the inner
// products v_a = ⟨y,q_a⟩, ⟨y,y⟩ and ⟨y,p⟩. Given the hull's Gram matrix and
// ⟨p,q_a⟩, each step (linear minimisation, duality gap, exact line search,
// ‖y−p‖²) costs O(l) instead of O(l·d): one walk along row s of the matrix
// and down its column s. The weights λ are needed only to materialise y, so
// a step just records its (s, γ), and the record is replayed into λ, with
// the multiply and the add of the per-step update in the same order, when
// y is materialised. A point is declared covered only after y is
// materialised in R^d and ‖y−p‖ ≤ θ·D̂ is checked there. Per refinement
// round the cost is:
//
//   - O(n·l·d) for the exact nearest-vertex start, which scores four
//     vertices per pass over the point and also yields ⟨p,q_a⟩;
//   - O(l) per Frank–Wolfe step, plus O(l) per step of a run whose iterate
//     is materialised, for the replay;
//   - O(l·d) per inserted vertex, for its row of the Gram matrix, four
//     entries per pass; the matrix keeps only its lower triangle, one row
//     per vertex (≈ l²/2 doubles).
//
// Every four-way kernel keeps one accumulator per entry, summed in
// coordinate order, so it returns the one-entry loop's bits. Two faster
// layouts were measured on the build workload's points and left out, both
// for memory: a full symmetric Gram matrix, which turns the column walk into
// a row walk but doubles the matrix (2.9 MB at l = 605), and a cache of
// each pending point's squared distances to the vertices, carried across
// rounds. Each raised that workload's peak RSS by 9–16%.
//
// Given the hull, points are independent, so each round spreads them over
// runtime.GOMAXPROCS(0) workers with par.For. A worker writes only its own
// points' slots, and the uncovered points are collected in index order.
// Seeding's workers likewise write only their own directions' argmaxes,
// each summed in coordinate order, and the seeds go in in direction order.
// So the Result does not depend on the worker count.
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
	"slices"
	"sort"

	"resistecc/internal/par"
)

// Options configures APPROXCH.
type Options struct {
	// Theta is the coverage parameter θ ∈ (0,1); FASTQUERY passes ε/12.
	Theta float64
	// Seed drives the random seeding directions, of which there are
	// min(2d+8, 64).
	Seed int64
	// MaxVertices caps |Ŝ|; zero means no cap. When the cap binds, the
	// θ-coverage guarantee may be violated; Result.Certified reports it.
	MaxVertices int
}

// batchInsert caps how many uncovered vertices a refinement round may
// insert at once (mutually separated by > 2θ·D̂, so none could have covered
// another). Batching only ever grows Ŝ ⊆ S, never weakens coverage.
const batchInsert = 16

// Result is the output of Approx.
type Result struct {
	// Vertices lists the indices (into the input point set) of Ŝ.
	Vertices []int
	// Diameter is the estimated point-set diameter D̂ ≤ D(S) used for the
	// coverage threshold (a lower bound makes the threshold conservative).
	Diameter float64
	// Certified reports whether every point was certified within θ·D̂ of
	// conv(Ŝ) when refinement finished (false if MaxVertices bound first).
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

	res, a, b := seedHull(pts, opt)
	if res.Diameter == 0 {
		return res, nil
	}
	hullIdx := res.Vertices
	full := func() bool { return opt.MaxVertices > 0 && len(hullIdx) >= opt.MaxVertices }

	// --- Stage 2: certified greedy refinement. ---
	threshold := opt.Theta * res.Diameter
	// Frank–Wolfe steps per distance query: ⌈1/θ²⌉, the θ⁻² term of
	// Lemma 5.3, clamped to [16, 4096].
	maxFW := min(max(int(math.Ceil(1/(opt.Theta*opt.Theta))), 16), 4096)
	lmax := n
	if opt.MaxVertices > 0 {
		lmax = min(n, opt.MaxVertices)
	}
	g := newGram(pts, a, b, lmax)
	fws := make([]fw, runtime.GOMAXPROCS(0))
	covered := make([]bool, n) // vertices of Ŝ, and points certified within θ·D̂
	for _, i := range hullIdx {
		covered[i] = true
	}
	ub := make([]float64, n) // distance upper bound of each uncovered point
	// Each round's pending points are a subset of the first round's, so
	// pending never grows past its first size, and the uncovered points are
	// sorted in place at its front.
	pending := make([]int, 0, n-len(hullIdx))
	accepted := make([]int, 0, batchInsert)
	for !full() {
		g.extend(hullIdx)
		pending = pending[:0]
		for i := 0; i < n; i++ {
			if !covered[i] {
				pending = append(pending, i)
			}
		}
		for w := range fws {
			fws[w].size(len(hullIdx), lmax, d)
		}
		par.For(len(pending), len(fws), func(w, k int) {
			i := pending[k]
			ub[i], _, covered[i] = fws[w].distToHull(g, pts[i], threshold, maxFW)
		})
		uncovered := pending[:0]
		for _, i := range pending {
			if !covered[i] {
				uncovered = append(uncovered, i)
			}
		}
		if len(uncovered) == 0 {
			res.Certified = true
			break
		}
		// Insert a spaced batch: points within 2θ·D̂ of an accepted one may
		// become covered by it, so only mutually distant candidates go in
		// together. Candidates are taken in decreasing distance-to-hull.
		sort.Slice(uncovered, func(a, b int) bool { return ub[uncovered[a]] > ub[uncovered[b]] })
		accepted = accepted[:0]
		for _, i := range uncovered {
			if len(accepted) >= batchInsert {
				break
			}
			if opt.MaxVertices > 0 && len(hullIdx)+len(accepted) >= opt.MaxVertices {
				break
			}
			ok := true
			for _, a := range accepted {
				if distSq(pts[i], pts[a]) <= 4*threshold*threshold {
					ok = false
					break
				}
			}
			if ok {
				accepted = append(accepted, i)
			}
		}
		for _, a := range accepted {
			covered[a] = true
			hullIdx = append(hullIdx, a)
		}
		res.Rounds++
	}
	res.Vertices = hullIdx
	return res, nil
}

// seedHull runs stages 0 and 1 of APPROXCH: the double-sweep diameter pair
// (a, b), which also estimates D̂, and the extreme points of random
// directions. res.Vertices holds the seeds, capped at opt.MaxVertices, and
// res.Certified is set only when every point coincides.
func seedHull(pts [][]float64, opt Options) (res *Result, a, b int) {
	res = &Result{}
	in := make([]bool, len(pts)) // membership of Ŝ
	var hullIdx []int
	full := func() bool { return opt.MaxVertices > 0 && len(hullIdx) >= opt.MaxVertices }
	addVertex := func(i int) {
		if !in[i] {
			in[i] = true
			hullIdx = append(hullIdx, i)
		}
	}

	// --- Stage 0: approximate diameter by double sweep. ---
	a = argmaxDist(pts, pts[0])
	b = argmaxDist(pts, pts[a])
	res.Diameter = math.Sqrt(distSq(pts[a], pts[b]))
	addVertex(a)
	if !full() {
		addVertex(b)
	}
	if res.Diameter == 0 {
		// All points coincide; a single representative covers everything.
		res.Vertices = hullIdx[:1]
		res.Certified = true
		return res, a, b
	}

	// --- Stage 1: directional extreme seeding. ---
	if !full() {
		for _, i := range seedArgmaxes(pts, min(2*len(pts[0])+8, 64), opt.Seed) {
			if full() {
				break
			}
			addVertex(i)
		}
	}
	res.Vertices = hullIdx
	return res, a, b
}

func argmaxDist(pts [][]float64, from []float64) int {
	best, arg := -1.0, 0
	for i, p := range pts {
		if d := distSq(p, from); d > best {
			best, arg = d, i
		}
	}
	return arg
}

// seedArgmaxes draws dirs random directions from a source seeded with seed,
// d normal coordinates each, and returns for each the first index of a point
// maximising its dot product. The directions are scored four per pass over
// the points, and the passes run on runtime.GOMAXPROCS(0) workers.
func seedArgmaxes(pts [][]float64, dirs int, seed int64) []int {
	d := len(pts[0])
	rng := rand.New(rand.NewSource(seed))
	passes := (dirs + 3) / 4
	// Zero directions pad the last pass to four; their answers are dropped.
	dir := make([]float64, 4*passes*d)
	for j := range dir[:dirs*d] {
		dir[j] = rng.NormFloat64()
	}
	arg := make([]int, 4*passes)
	par.For(passes, runtime.GOMAXPROCS(0), func(_, k int) {
		argmaxDot4(pts, dir[4*k*d:4*(k+1)*d], (*[4]int)(arg[4*k:]))
	})
	return arg[:dirs]
}

// argmaxDot4 scores four directions in one pass over the points: dir holds
// them back to back, d coordinates each, and arg[t] gets the first index i
// maximising ⟨pts[i], dir_t⟩. Each direction keeps its own accumulator,
// summed in coordinate order, and strict > keeps the lowest index on a tie,
// so every answer is that of a one-direction scan.
func argmaxDot4(pts [][]float64, dir []float64, arg *[4]int) {
	d := len(dir) / 4
	d0, d1, d2, d3 := dir[:d:d], dir[d:2*d:2*d], dir[2*d:3*d:3*d], dir[3*d:4*d:4*d]
	b0, b1, b2, b3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	var a0, a1, a2, a3 int
	for i, p := range pts {
		p = p[:d]
		var s0, s1, s2, s3 float64
		for j, x := range p {
			s0 += d0[j] * x
			s1 += d1[j] * x
			s2 += d2[j] * x
			s3 += d3[j] * x
		}
		if s0 > b0 {
			b0, a0 = s0, i
		}
		if s1 > b1 {
			b1, a1 = s1, i
		}
		if s2 > b2 {
			b2, a2 = s2, i
		}
		if s3 > b3 {
			b3, a3 = s3, i
		}
	}
	*arg = [4]int{a0, a1, a2, a3}
}

func distSq(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		d := v - y[i]
		s += d * d
	}
	return s
}

// distSq4 returns ‖q_t − p‖² for four points q0…q3 in one pass over p. Each
// point keeps its own accumulator, summed in coordinate order, so each answer
// is distSq(q_t, p) to the bit.
func distSq4(p, q0, q1, q2, q3 []float64) (s0, s1, s2, s3 float64) {
	d := len(p)
	q0, q1, q2, q3 = q0[:d], q1[:d], q2[:d], q3[:d]
	for j, x := range p {
		d0, d1, d2, d3 := q0[j]-x, q1[j]-x, q2[j]-x, q3[j]-x
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
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

// newGram centres the Gram matrix on the midpoint of pts[a] and pts[b] and
// reserves room for the rows of lmax vertices, the most the hull can have.
func newGram(pts [][]float64, a, b, lmax int) *gram {
	c := make([]float64, len(pts[a]))
	for j := range c {
		c[j] = (pts[a][j] + pts[b][j]) / 2
	}
	return &gram{pts: pts, c: c, rows: make([][]float64, 0, lmax)}
}

// extend appends a row for every vertex of hullIdx beyond those it holds.
// Each row is computed four entries per pass over q_a; every entry keeps its
// own accumulator, summed in coordinate order, so it is the one-entry dot
// product to the bit.
func (g *gram) extend(hullIdx []int) {
	c := g.c
	d := len(c)
	for a := len(g.rows); a < len(hullIdx); a++ {
		qa := g.pts[hullIdx[a]][:d]
		row := make([]float64, a+1)
		b := 0
		for ; b+4 <= len(row); b += 4 {
			q0, q1, q2, q3 := g.pts[hullIdx[b]][:d], g.pts[hullIdx[b+1]][:d], g.pts[hullIdx[b+2]][:d], g.pts[hullIdx[b+3]][:d]
			var s0, s1, s2, s3 float64
			for j, cj := range c {
				x := qa[j] - cj
				s0 += x * (q0[j] - cj)
				s1 += x * (q1[j] - cj)
				s2 += x * (q2[j] - cj)
				s3 += x * (q3[j] - cj)
			}
			row[b], row[b+1], row[b+2], row[b+3] = s0, s1, s2, s3
		}
		for ; b < len(row); b++ {
			qb := g.pts[hullIdx[b]][:d]
			s := 0.0
			for j, cj := range c {
				s += (qa[j] - cj) * (qb[j] - cj)
			}
			row[b] = s
		}
		g.rows = append(g.rows, row)
	}
	g.idx = hullIdx
}

func (g *gram) diag(a int) float64 { return g.rows[a][a] }

// step moves the iterate toward vertex s by gamma, v ← (1−γ)·v + γ·G[s,:],
// and returns the next linear-minimisation vertex: the first a minimising
// v_a − pq_a, which is ⟨y−p, q_a−c⟩ up to a term that does not depend on a.
// The weights λ are not touched here: fw records (s, γ), and weights replays
// the record only when λ is read.
func (g *gram) step(s int, gamma float64, v, pq []float64) (arg int, best float64) {
	keep := 1 - gamma
	best, arg = math.Inf(1), -1
	row := g.rows[s]
	vr, pqr := v[:len(row)], pq[:len(row)]
	for a, gsa := range row {
		x := keep*vr[a] + gamma*gsa
		vr[a] = x
		if x -= pqr[a]; x < best {
			best, arg = x, a
		}
	}
	// The rest of row s is column s of the later rows: G[a][s] for a > s.
	later := g.rows[s+1 : len(v)]
	vc, pqc := v[s+1:][:len(later)], pq[s+1:][:len(later)]
	for k, ra := range later {
		x := keep*vc[k] + gamma*ra[s]
		vc[k] = x
		if x -= pqc[k]; x < best {
			best, arg = x, s+1+k
		}
	}
	return arg, best
}

// coverSlack widens the Gram-form test ‖y−p‖ ≤ θ·D̂ that triggers the exact
// check in R^d. The Gram form cancels terms of size O(D²) to get ‖y−p‖², so
// it carries O(ε_mach·D²) rounding; an iterate that close to the threshold
// is decided in R^d, as every covering iterate is.
const coverSlack = 1e-9

// fw is one worker's Frank–Wolfe scratch.
type fw struct {
	pq   []float64 // ⟨p−c, q_a−c⟩; first the squared distances ‖p−q_a‖²
	v    []float64 // ⟨y−c, q_a−c⟩
	lam  []float64 // y = Σ λ_a q_a, as of the first done steps of hist
	hist []fwStep  // every step of the current run, the start included
	done int       // how many steps of hist lam reflects
	r    []float64 // y − p in R^d
}

// fwStep is one Frank–Wolfe step, y ← (1−γ)·y + γ·q_s.
type fwStep struct {
	s     int
	gamma float64
}

// shortRun is the history a worker starts with. Most Frank–Wolfe runs end
// within a few dozen steps; the first that outgrows it takes room for all
// maxIters steps at once, so a worker's history is allocated at most twice.
const shortRun = 64

// size makes the scratch fit a hull of l vertices in R^d, leaving room to
// grow to twice that, or to lmax, the most the hull can have.
func (f *fw) size(l, lmax, d int) {
	if cap(f.pq) < l {
		c := max(l, min(2*l, lmax))
		f.pq = make([]float64, l, c)
		f.v = make([]float64, l, c)
		f.lam = make([]float64, l, c)
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
func (f *fw) distToHull(g *gram, p []float64, earlyStop float64, maxIters int) (ub, lb float64, covered bool) {
	pq, v := f.pq, f.v
	// The nearest vertex, four vertices per pass over p; strict < keeps
	// the first of equals, as a one-vertex scan would.
	idx, pts := g.idx, g.pts
	bestD, start := math.Inf(1), 0
	a := 0
	for ; a+4 <= len(idx); a += 4 {
		pq[a], pq[a+1], pq[a+2], pq[a+3] = distSq4(p, pts[idx[a]], pts[idx[a+1]], pts[idx[a+2]], pts[idx[a+3]])
		for k, x := range pq[a : a+4] {
			if x < bestD {
				bestD, start = x, a+k
			}
		}
	}
	for ; a < len(idx); a++ {
		x := distSq(pts[idx[a]], p)
		pq[a] = x
		if x < bestD {
			bestD, start = x, a
		}
	}
	// y = q_start is a full step toward it from anywhere.
	if f.hist == nil {
		f.hist = make([]fwStep, 0, shortRun)
	}
	f.hist, f.done = append(f.hist[:0], fwStep{start, 1}), 0
	ub = math.Sqrt(bestD)
	if ub <= earlyStop {
		f.weights()
		return ub, 0, true
	}
	// ⟨p−c, q_a−c⟩ = (‖p−c‖² + ‖q_a−c‖² − ‖p−q_a‖²) / 2.
	pp := distSq(p, g.c)
	for a := range pq {
		pq[a] = (pp + g.diag(a) - pq[a]) / 2
	}
	// A full step sets v = G[start,:] whatever v held. Then yy = ‖y−c‖²,
	// yp = ⟨y−c, p−c⟩ and fy = ‖y−p‖².
	s, sDot := g.step(start, 1, v, pq)
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
		if len(f.hist) == cap(f.hist) {
			f.hist = slices.Grow(f.hist, maxIters+1-len(f.hist))
		}
		f.hist = append(f.hist, fwStep{s, gamma})
		s, sDot = g.step(s, gamma, v, pq)
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

// weights brings f.lam up to date with the iterate and returns it. It
// replays the steps recorded since its last call, each as the update
// λ ← (1−γ)·λ + γ·e_s: every weight multiplied by 1−γ, in index order, then
// γ added to λ_s. So λ holds the bits that updating it at every step would
// give, while a run that never reads λ never pays for it.
func (f *fw) weights() []float64 {
	lam := f.lam
	if f.done == 0 {
		clear(lam)
	}
	for _, st := range f.hist[f.done:] {
		keep := 1 - st.gamma
		for a := range lam {
			lam[a] *= keep
		}
		lam[st.s] += st.gamma
	}
	f.done = len(f.hist)
	return lam
}

// materialise forms y − p = Σ λ_a (q_a − c) − (p − c) in R^d and returns its
// norm.
func (f *fw) materialise(g *gram, p []float64) float64 {
	r := f.r
	for j, cj := range g.c {
		r[j] = cj - p[j]
	}
	for a, w := range f.weights() {
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
