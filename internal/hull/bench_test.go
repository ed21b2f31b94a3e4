package hull

import "testing"

var benchResult *Result

// BenchmarkHullApprox times APPROXCH alone on two clouds shaped like the
// two ways the server builds a hull: uncapped to the θ-coverage
// certificate, as in a certified cold build (ε = 0.3, so θ = ε/12), and
// capped at the serving default of 64 vertices (ε = 0.2, d = 128). The
// served-* cases run on the points perfbench's build, mixed and serve
// workloads hand to hull.Approx, at their options; the sketch that makes
// them is built once, off the clock.
func BenchmarkHullApprox(b *testing.B) {
	type benchCase struct {
		name string
		pts  func(testing.TB) [][]float64
		opt  Options
	}
	cases := []benchCase{
		{"build-uncapped", func(testing.TB) [][]float64 { return fixtureCloud(31, 600, 64, true, 10) }, Options{Theta: 0.025, Seed: 131}},
		{"serve-cap64", func(testing.TB) [][]float64 { return fixtureCloud(32, 6000, 128, true, 0) }, Options{Theta: 0.2 / 12, Seed: 132, MaxVertices: 64}},
	}
	for _, in := range servedInputs {
		cases = append(cases, benchCase{"served-" + in.name, in.points, in.options()})
	}
	for _, bc := range cases {
		var pts [][]float64
		b.Run(bc.name, func(b *testing.B) {
			if pts == nil {
				pts = bc.pts(b)
				b.ResetTimer()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Approx(pts, bc.opt)
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
			b.ReportMetric(float64(len(benchResult.Vertices)), "l")
			b.ReportMetric(float64(benchResult.Rounds), "rounds")
		})
	}
}
