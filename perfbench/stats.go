package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A p99 of 200 samples rests on two values; it is noise, not a tail.
const minBeyond = 10

// ladder lists the tail percentiles the report may use, highest first.
var ladder = []float64{0.999, 0.99, 0.9, 0.75}

// dist is a sorted sample with its percentile accessors.
type dist struct {
	xs []float64
}

func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

func (d dist) n() int { return len(d.xs) }

// rank is the nearest-rank index of quantile q (0 ≤ q ≤ 1).
func (d dist) rank(q float64) int {
	i := int(math.Ceil(q*float64(len(d.xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d.xs) {
		i = len(d.xs) - 1
	}
	return i
}

// at returns the nearest-rank q-quantile, or 0 on an empty sample.
func (d dist) at(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	return d.xs[d.rank(q)]
}

// beyond counts the samples ranked above the q-quantile.
func (d dist) beyond(q float64) int {
	if len(d.xs) == 0 {
		return 0
	}
	return len(d.xs) - 1 - d.rank(q)
}

// tail picks the highest ladder percentile with at least minBeyond samples
// beyond it. ok is false when even the lowest rung is unsupported.
func (d dist) tail() (q, v float64, beyond int, ok bool) {
	for _, q := range ladder {
		if b := d.beyond(q); b >= minBeyond {
			return q, d.at(q), b, true
		}
	}
	return 0, 0, 0, false
}

// median of an unsorted slice: the middle value, or the mean of the two
// middle values (0 when empty).
func median(xs []float64) float64 {
	s := newDist(xs).xs
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowSamples is the smallest window a p99 rests on: with 1000 samples
// the p99 has minBeyond samples beyond it.
const windowSamples = 1000

// windowed cuts xs, in time order, into as many windows of at least
// windowSamples as it fills (one window when it fills none) and returns the
// median over windows of each window's median and p99, and the window
// count. A burst of load from outside the benchmark then moves the result
// only if it spans half the windows.
func windowed(xs []float64) (p50, p99 float64, k int) {
	k = max(1, len(xs)/windowSamples)
	var a, b []float64
	for i := 0; i < k; i++ {
		d := newDist(xs[i*len(xs)/k : (i+1)*len(xs)/k])
		a, b = append(a, d.at(0.5)), append(b, d.at(0.99))
	}
	return median(a), median(b), k
}

// mean of a slice (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// pct formats a quantile as a percentile label: 0.99 → "p99".
func pct(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.3f", x)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}
