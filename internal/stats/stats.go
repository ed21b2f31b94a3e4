// Package stats provides the statistical substrate of §IV: histograms and
// shape statistics of resistance-eccentricity distributions, maximum-
// likelihood fitting of the Burr Type XII distribution (the paper's model
// for E(G), fitted in MATLAB there; by Nelder–Mead here), Kolmogorov–Smirnov
// goodness-of-fit, and a random-walk Monte-Carlo estimator of commute times
// used as an independent cross-check of resistance distances
// (C(u,v) = 2m·r(u,v)).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram bins the samples into nbins equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Width    float64
	Counts   []int
	N        int
}

// NewHistogram builds a histogram with nbins bins spanning the sample range.
func NewHistogram(samples []float64, nbins int) (*Histogram, error) {
	if nbins < 1 {
		return nil, fmt.Errorf("stats: need at least one bin")
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("stats: no samples")
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi <= lo {
		hi = lo + 1 // degenerate: everything lands in bin 0
	}
	h := &Histogram{Min: lo, Max: hi, Width: (hi - lo) / float64(nbins), Counts: make([]int, nbins), N: len(samples)}
	for _, s := range samples {
		b := int((s - lo) / h.Width)
		if b >= nbins {
			b = nbins - 1
		}
		if b < 0 {
			b = 0
		}
		h.Counts[b]++
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 { return h.Min + (float64(i)+0.5)*h.Width }

// Density returns the empirical pdf value of bin i.
func (h *Histogram) Density(i int) float64 {
	return float64(h.Counts[i]) / (float64(h.N) * h.Width)
}

// Moments summarizes location and shape of a sample.
type Moments struct {
	N                int
	Mean, Var, Std   float64
	Skewness         float64 // g1 = m3 / m2^{3/2}; > 0 ⇒ right-skew (§IV-B)
	ExcessKurtosis   float64 // m4/m2² − 3; > 0 ⇒ heavy tails
	Min, Median, Max float64
}

// ComputeMoments returns sample moments and order statistics.
func ComputeMoments(samples []float64) Moments {
	var m Moments
	m.N = len(samples)
	if m.N == 0 {
		return m
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	m.Min, m.Max = sorted[0], sorted[m.N-1]
	if m.N%2 == 1 {
		m.Median = sorted[m.N/2]
	} else {
		m.Median = 0.5 * (sorted[m.N/2-1] + sorted[m.N/2])
	}
	for _, s := range samples {
		m.Mean += s
	}
	m.Mean /= float64(m.N)
	var m2, m3, m4 float64
	for _, s := range samples {
		d := s - m.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	fn := float64(m.N)
	m2 /= fn
	m3 /= fn
	m4 /= fn
	m.Var = m2
	m.Std = math.Sqrt(m2)
	if m2 > 0 {
		m.Skewness = m3 / math.Pow(m2, 1.5)
		m.ExcessKurtosis = m4/(m2*m2) - 3
	}
	return m
}

// KolmogorovSmirnov returns the KS statistic sup_x |F_n(x) − F(x)| of the
// sample against the given cdf.
func KolmogorovSmirnov(samples []float64, cdf func(float64) float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		lo := f - float64(i)/n
		hi := float64(i+1)/n - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}
