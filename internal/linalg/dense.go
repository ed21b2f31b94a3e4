// Package linalg provides the small dense linear-algebra substrate needed by
// the exact algorithms of the paper: dense symmetric matrices, Gauss–Jordan
// inversion, the Laplacian pseudoinverse L† = (L + J/n)⁻¹ − J/n (§III-B),
// and Sherman–Morrison rank-1 updates of L† under edge insertion (used to
// make the SIMPLE greedy and the exhaustive OPT baselines tractable).
//
// Everything here is O(n²) memory and O(n³) time by design — it is the
// paper's EXACTQUERY substrate and the ground truth against which the
// near-linear algorithms are validated.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a dense row-major n×n real matrix.
type Dense struct {
	N    int
	Data []float64 // row-major, len N*N
}

// NewDense allocates a zero n×n matrix.
func NewDense(n int) *Dense {
	return &Dense{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.N+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.N+j] = v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{N: d.N, Data: append([]float64(nil), d.Data...)}
}

// Row returns row i as a shared slice.
func (d *Dense) Row(i int) []float64 { return d.Data[i*d.N : (i+1)*d.N] }

// ErrSingular reports a numerically singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Invert replaces d with its inverse via Gauss–Jordan elimination with
// partial pivoting. O(n³).
func (d *Dense) Invert() error {
	n := d.N
	// Augment with identity, eliminate in place.
	inv := NewDense(n)
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	a := d.Data
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, best := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-14 {
			return fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivot != col {
			swapRows(a, n, pivot, col)
			swapRows(inv.Data, n, pivot, col)
		}
		p := a[col*n+col]
		invP := 1 / p
		for j := 0; j < n; j++ {
			a[col*n+j] *= invP
			inv.Data[col*n+j] *= invP
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	copy(d.Data, inv.Data)
	return nil
}

func swapRows(a []float64, n, r1, r2 int) {
	row1 := a[r1*n : (r1+1)*n]
	row2 := a[r2*n : (r2+1)*n]
	for j := range row1 {
		row1[j], row2[j] = row2[j], row1[j]
	}
}
