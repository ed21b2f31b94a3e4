package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	samples := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h, err := NewHistogram(samples, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 10 || len(h.Counts) != 5 {
		t.Fatalf("histogram %+v", h)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 10 {
		t.Fatalf("counts sum %d", total)
	}
	// Density integrates to ~1.
	integral := 0.0
	for i := range h.Counts {
		integral += h.Density(i) * h.Width
	}
	if math.Abs(integral-1) > 1e-12 {
		t.Fatalf("density integral %g", integral)
	}
	if c := h.BinCenter(0); math.Abs(c-0.9) > 1e-12 {
		t.Fatalf("bin center %g", c)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 3); err == nil {
		t.Fatal("empty samples")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Fatal("zero bins")
	}
	// Degenerate constant sample.
	h, err := NewHistogram([]float64{2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Fatalf("degenerate histogram %v", h.Counts)
	}
}

func TestMoments(t *testing.T) {
	m := ComputeMoments([]float64{1, 2, 3, 4, 5})
	if m.Mean != 3 || m.Median != 3 || m.Min != 1 || m.Max != 5 {
		t.Fatalf("moments %+v", m)
	}
	if math.Abs(m.Var-2) > 1e-12 {
		t.Fatalf("var %g", m.Var)
	}
	if math.Abs(m.Skewness) > 1e-12 {
		t.Fatalf("symmetric sample skew %g", m.Skewness)
	}
	// Even-length median.
	m2 := ComputeMoments([]float64{1, 2, 3, 4})
	if m2.Median != 2.5 {
		t.Fatalf("median %g", m2.Median)
	}
	// Right-skewed sample.
	m3 := ComputeMoments([]float64{1, 1, 1, 1, 10})
	if m3.Skewness <= 0 {
		t.Fatalf("skew %g", m3.Skewness)
	}
	if m0 := ComputeMoments(nil); m0.N != 0 {
		t.Fatal("empty moments")
	}
}

func TestKolmogorovSmirnovUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	d := KolmogorovSmirnov(samples, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	})
	// KS for a correct model at n=4000 is ~1.36/√n ≈ 0.021 at 95%.
	if d > 0.05 {
		t.Fatalf("KS %g too large for correct model", d)
	}
	// Against a wrong cdf it must be large.
	dWrong := KolmogorovSmirnov(samples, func(x float64) float64 { return x * x })
	if dWrong < 0.15 {
		t.Fatalf("KS %g too small for wrong model", dWrong)
	}
}

func TestBurrPDFCDFConsistency(t *testing.T) {
	b := Burr{C: 2, K: 3, Lambda: 1.5}
	if b.PDF(-1) != 0 || b.CDF(-1) != 0 {
		t.Fatal("negative support")
	}
	// CDF is the integral of the PDF (trapezoid check).
	integral := 0.0
	prev := b.PDF(0)
	const dx = 1e-4
	for x := dx; x <= 3; x += dx {
		cur := b.PDF(x)
		integral += (prev + cur) / 2 * dx
		prev = cur
	}
	if math.Abs(integral-b.CDF(3)) > 1e-3 {
		t.Fatalf("∫pdf=%g vs CDF=%g", integral, b.CDF(3))
	}
	// Quantile inverts CDF.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if q := b.Quantile(p); math.Abs(b.CDF(q)-p) > 1e-9 {
			t.Fatalf("quantile(%g) roundtrip failed: %g", p, b.CDF(q))
		}
	}
	if b.Quantile(0) != 0 || !math.IsInf(b.Quantile(1), 1) {
		t.Fatal("quantile bounds")
	}
}

func TestFitBurrRecoversParameters(t *testing.T) {
	// Sample from a known Burr via inverse-CDF and refit.
	truth := Burr{C: 3, K: 2, Lambda: 2}
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 5000)
	for i := range samples {
		samples[i] = truth.Quantile(rng.Float64())
	}
	fit, err := FitBurr(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Burr parameters are weakly identified jointly; assess by fit quality.
	if fit.KS > 0.03 {
		t.Fatalf("KS of refit %g too large (fit %+v)", fit.KS, fit.Burr)
	}
	if fit.LogLik <= truth.LogLikelihood(samples)-50 {
		t.Fatalf("fit loglik %g far below truth %g", fit.LogLik, truth.LogLikelihood(samples))
	}
}

func TestFitBurrErrors(t *testing.T) {
	if _, err := FitBurr([]float64{1, 2}); err == nil {
		t.Fatal("too few samples")
	}
	bad := []float64{1, 2, 3, 4, 5, 6, 7, -1}
	if _, err := FitBurr(bad); err == nil {
		t.Fatal("negative sample")
	}
	bad[7] = math.NaN()
	if _, err := FitBurr(bad); err == nil {
		t.Fatal("NaN sample")
	}
}

func TestLogLikelihoodGuards(t *testing.T) {
	if !math.IsInf(Burr{C: -1, K: 1, Lambda: 1}.LogLikelihood([]float64{1}), -1) {
		t.Fatal("invalid params should give -Inf")
	}
	if !math.IsInf(Burr{C: 1, K: 1, Lambda: 1}.LogLikelihood([]float64{-1}), -1) {
		t.Fatal("negative sample should give -Inf")
	}
	// Large C·log z must not overflow to NaN.
	ll := Burr{C: 50, K: 1, Lambda: 1}.LogLikelihood([]float64{100})
	if math.IsNaN(ll) {
		t.Fatal("overflow NaN in log-likelihood")
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(p []float64) float64 {
		return (p[0]-3)*(p[0]-3) + 2*(p[1]+1)*(p[1]+1)
	}
	best, iters := NelderMead(f, []float64{0, 0}, NMOptions{})
	if math.Abs(best[0]-3) > 1e-4 || math.Abs(best[1]+1) > 1e-4 {
		t.Fatalf("NM converged to %v after %d iters", best, iters)
	}
}

// Property: Nelder–Mead never returns a point worse than the start.
func TestQuickNelderMeadNoWorse(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		obj := func(p []float64) float64 {
			return math.Abs(p[0]-a) + (p[1]-b)*(p[1]-b)
		}
		start := []float64{0, 0}
		best, _ := NelderMead(obj, start, NMOptions{MaxIter: 300})
		return obj(best) <= obj(start)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
