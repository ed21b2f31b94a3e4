package hull

import "math"

// argmaxDot is the reference seeding scan, one direction per pass over the
// points: the first index maximising ⟨p, dir⟩. The tests check the
// four-direction kernel against it.
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

// refFW is the reference point-to-hull distance: Frank–Wolfe run directly
// in R^d at O(l·d) per step. The tests check coverage with it, so the Gram-
// form code under test never re-verifies its own answers.
type refFW struct {
	y    []float64
	grad []float64
}

func newRefFW(d int) *refFW {
	return &refFW{y: make([]float64, d), grad: make([]float64, d)}
}

// distToHull estimates dist(p, conv({pts[i] : i ∈ hullIdx})) by Frank–Wolfe
// on f(y) = ‖y − p‖². It returns a certified upper bound (distance from p to
// the final feasible iterate) and a lower bound from the Frank–Wolfe duality
// gap. Early exit: as soon as the upper bound drops to earlyStop (the point
// is covered) or the lower bound exceeds earlyStop (certified uncovered).
func (f *refFW) distToHull(pts [][]float64, hullIdx []int, p []float64, earlyStop float64, maxIters int) (ub, lb float64) {
	d := len(p)
	// Start at the hull vertex closest to p.
	bestD, bestI := math.Inf(1), hullIdx[0]
	for _, i := range hullIdx {
		if dd := distSq(pts[i], p); dd < bestD {
			bestD, bestI = dd, i
		}
	}
	copy(f.y, pts[bestI])
	fy := bestD
	ub = math.Sqrt(fy)
	if ub <= earlyStop {
		return ub, 0
	}
	for it := 0; it < maxIters; it++ {
		// grad = 2(y − p); linear minimization over vertices.
		for j := 0; j < d; j++ {
			f.grad[j] = f.y[j] - p[j]
		}
		bestDot, bestS := math.Inf(1), -1
		for _, i := range hullIdx {
			s := 0.0
			q := pts[i]
			for j := 0; j < d; j++ {
				s += f.grad[j] * q[j]
			}
			if s < bestDot {
				bestDot, bestS = s, i
			}
		}
		// Duality gap g = ⟨grad, y − s⟩ bounds f(y) − f*; with grad halved
		// above the true gap is 2·(⟨grad,y⟩ − bestDot).
		gy := 0.0
		for j := 0; j < d; j++ {
			gy += f.grad[j] * f.y[j]
		}
		gap := 2 * (gy - bestDot)
		if fLow := fy - gap; fLow > 0 {
			lb = math.Sqrt(fLow)
		} else {
			lb = 0
		}
		if lb > earlyStop || gap <= 1e-15 {
			return ub, lb
		}
		// Exact line search toward vertex bestS: γ* = ⟨p−y, s−y⟩/‖s−y‖².
		s := pts[bestS]
		num, den := 0.0, 0.0
		for j := 0; j < d; j++ {
			sy := s[j] - f.y[j]
			num += (p[j] - f.y[j]) * sy
			den += sy * sy
		}
		if den == 0 {
			return ub, lb
		}
		gamma := num / den
		if gamma <= 0 {
			return ub, lb // stationary: s does not improve
		}
		if gamma > 1 {
			gamma = 1
		}
		for j := 0; j < d; j++ {
			f.y[j] += gamma * (s[j] - f.y[j])
		}
		fy = distSq(f.y, p)
		if u := math.Sqrt(fy); u < ub {
			ub = u
		}
		if ub <= earlyStop {
			return ub, lb
		}
	}
	return ub, lb
}
