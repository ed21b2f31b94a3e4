package hull

import "testing"

// TestZeroAllocs pins, one case per function, that the refinement kernels
// allocate nothing once a worker's Frank–Wolfe scratch is sized: APPROXCH
// runs them once per candidate point per round.
func TestZeroAllocs(t *testing.T) {
	pts := fixtureCloud(7, 80, 12, true, 0)
	res, _, _ := seedHull(pts, Options{Theta: 0.05, Seed: 7})
	hullIdx := res.Vertices
	g := newGram(pts, hullIdx[0], hullIdx[len(hullIdx)-1], len(hullIdx))
	g.extend(hullIdx)
	var f fw
	f.size(len(hullIdx), len(hullIdx), len(pts[0]))
	p := pts[hullIdx[0]]
	q := make([]float64, len(p)) // the centroid: inside the hull, never a vertex
	for _, x := range pts {
		for j := range q {
			q[j] += x[j] / float64(len(pts))
		}
	}
	dir4 := make([]float64, 0, 4*len(p))
	for _, x := range [][]float64{p, q, pts[1], pts[2]} {
		dir4 = append(dir4, x...)
	}
	var arg4 [4]int
	var sinkF float64
	var sinkI int
	cases := []struct {
		name string
		run  func()
	}{
		{"argmaxDist", func() { sinkI = argmaxDist(pts, p) }},
		{"argmaxDot4", func() { argmaxDot4(pts, dir4, &arg4) }},
		{"distSq", func() { sinkF = distSq(p, q) }},
		{"distSq4", func() { sinkF, _, _, _ = distSq4(q, p, pts[1], pts[2], pts[3]) }},
		{"gram.step", func() { sinkI, sinkF = g.step(1, 0.5, f.v, f.pq) }},
		{"fw.distToHull", func() { sinkF, _, _ = f.distToHull(g, q, 0, 300) }},
		{"fw.materialise", func() { sinkF = f.materialise(g, q) }},
		// Replays the whole history of the last distToHull run.
		{"fw.weights", func() { f.done = 0; sinkF = f.weights()[0] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm-up
			if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", tc.name, avg)
			}
		})
	}
	_, _ = sinkF, sinkI
}
