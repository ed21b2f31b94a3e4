package sketch

import "testing"

// TestZeroAllocs pins, one case per function, that the query and
// embedding-update kernels allocate nothing.
func TestZeroAllocs(t *testing.T) {
	sk := batchTestSketch(t, 120)
	srcs := []int{0, 7, 13, 42, 87}
	cand := []int{0, 7, 13, 42, 87, 119, 3, 55}
	ecc := make([]float64, len(srcs))
	arg := make([]int, len(srcs))
	dst := make([]float64, sk.Dim)
	var sinkF float64
	var sinkI int
	cases := []struct {
		name string
		run  func()
	}{
		{"Sketch.Resistance", func() { sinkF = sk.Resistance(3, 55) }},
		{"Sketch.Eccentricity", func() { sinkF, sinkI = sk.Eccentricity(42) }},
		{"Sketch.EccentricityOver", func() { sinkF, sinkI = sk.EccentricityOver(42, cand) }},
		{"Sketch.EccentricityBatch", func() { sk.EccentricityBatch(srcs, cand, ecc, arg) }},
		{"Sketch.scan4", func() { sk.scan4(0, 7, 13, 42, cand, ecc, arg) }},
		{"addScaledRow/c=0", func() { addScaledRow(dst, sk.pts[3], sk.pts[55], 0) }},
		{"addScaledRow/c≠0", func() { addScaledRow(dst, sk.pts[3], sk.pts[55], 0.25) }},
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
