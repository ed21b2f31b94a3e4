package solver

import (
	"testing"

	"resistecc/internal/graph"
)

// TestZeroAllocs pins, one case per function, that applying each
// preconditioner allocates nothing: CG calls it once per iteration.
func TestZeroAllocs(t *testing.T) {
	csr := graph.BarabasiAlbert(60, 3, 5).ToCSR()
	r := make([]float64, csr.N)
	z := make([]float64, csr.N)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	type tcase struct {
		name string
		run  func()
	}
	var cases []tcase
	for _, pc := range []Preconditioner{None, Jacobi, SGS} {
		s, err := NewLap(csr, Options{Precond: pc})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tcase{"Lap.applyPrecond/" + pc.String(), func() { s.applyPrecond(r, z) }})
		if pc == SGS {
			cases = append(cases, tcase{"Lap.applySGS", func() { s.applySGS(r, z) }})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm-up
			if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", tc.name, avg)
			}
		})
	}
}
