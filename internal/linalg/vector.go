package linalg

import "math"

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Dot(x, x)) }

// Axpy computes y += a·x.
func Axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// ProjectOutOnes removes the component of x along the all-ones vector:
// x ← x − mean(x)·1. Laplacian systems are solvable only for right-hand
// sides orthogonal to 1, and solutions are defined up to a 1-shift; fixing
// mean zero selects the pseudoinverse solution.
func ProjectOutOnes(x []float64) {
	if len(x) == 0 {
		return
	}
	mean := Sum(x) / float64(len(x))
	for i := range x {
		x[i] -= mean
	}
}
