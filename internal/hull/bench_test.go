package hull

import "testing"

var benchResult *Result

// BenchmarkHullApprox times APPROXCH alone on two clouds shaped like the
// two ways the server builds a hull: uncapped to the θ-coverage
// certificate, as in a certified cold build (ε = 0.3, so θ = ε/12), and
// capped at the serving default of 64 vertices (ε = 0.2, d = 128).
func BenchmarkHullApprox(b *testing.B) {
	for _, bc := range []struct {
		name string
		pts  [][]float64
		opt  Options
	}{
		{"build-uncapped", fixtureCloud(31, 600, 64, true, 10), Options{Theta: 0.025, Seed: 131}},
		{"serve-cap64", fixtureCloud(32, 6000, 128, true, 0), Options{Theta: 0.2 / 12, Seed: 132, MaxVertices: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Approx(bc.pts, bc.opt)
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
