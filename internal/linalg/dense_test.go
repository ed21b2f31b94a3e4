package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseBasics(t *testing.T) {
	d := NewDense(3)
	d.Set(0, 1, 5)
	if d.At(0, 1) != 5 {
		t.Fatalf("At(0,1)=%g", d.At(0, 1))
	}
	c := d.Clone()
	c.Set(0, 1, 9)
	if d.At(0, 1) != 5 {
		t.Fatal("clone aliased")
	}
	row := d.Row(0)
	if row[1] != 5 {
		t.Fatal("Row view wrong")
	}
}

func TestInvertIdentity(t *testing.T) {
	d := NewDense(4)
	for i := 0; i < 4; i++ {
		d.Set(i, i, 2)
	}
	if err := d.Invert(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !almostEq(d.At(i, i), 0.5, 1e-14) {
			t.Fatalf("inverse diag %g", d.At(i, i))
		}
	}
}

func TestInvertSingular(t *testing.T) {
	d := NewDense(2) // zero matrix
	if err := d.Invert(); err == nil {
		t.Fatal("zero matrix should be singular")
	}
}

// Property: for random well-conditioned matrices, A·A⁻¹ ≈ I.
func TestQuickInvertRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(seed%5+5)%5
		a := NewDense(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance → invertible
		}
		inv := a.Clone()
		if err := inv.Invert(); err != nil {
			return false
		}
		// Check A·inv ≈ I.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += a.At(i, k) * inv.At(k, j)
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(s, want, 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("norm %g", Norm2(x))
	}
	if Dot(x, []float64{1, 2}) != 11 {
		t.Fatal("dot")
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("axpy %v", y)
	}
	z := []float64{1, 2, 3}
	ProjectOutOnes(z)
	if !almostEq(Sum(z), 0, 1e-15) {
		t.Fatalf("projection sum %g", Sum(z))
	}
	ProjectOutOnes(nil) // must not panic
}
