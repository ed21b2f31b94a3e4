package solver

import (
	"testing"

	"resistecc/internal/graph"
)

// TestZeroAllocs pins, one case per function, that a warm solve allocates
// nothing: Solve and SolveLanes run once per mutation and per sketch block,
// and the preconditioners and lapMulDot4 once per CG iteration.
func TestZeroAllocs(t *testing.T) {
	csr := graph.BarabasiAlbert(60, 3, 5).ToCSR()
	r := make([]float64, csr.N)
	z := make([]float64, csr.N)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	b := make([]float64, csr.N)
	b[3], b[40] = 1, -1
	x := make([]float64, csr.N)
	b4 := make([][Lanes]float64, csr.N)
	x4 := make([][Lanes]float64, csr.N)
	for i := range b4 {
		b4[i] = [Lanes]float64{r[i], float64(i % 3), 0, b[i]}
	}
	var st [Lanes]LaneStats
	var sink [Lanes]float64
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
		// The first Solve allocates the scratch that applySGS works in.
		if _, err := s.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			tcase{"Lap.applyPrecond/" + pc.String(), func() { s.applyPrecond(r, z) }},
			tcase{"Lap.Solve/" + pc.String(), func() {
				if _, err := s.Solve(b, x); err != nil {
					t.Fatal(err)
				}
			}},
			tcase{"Lap.SolveLanes/" + pc.String(), func() {
				if err := s.SolveLanes(b4, x4, &st); err != nil {
					t.Fatal(err)
				}
			}})
		if pc == SGS {
			cases = append(cases, tcase{"Lap.applySGS", func() { s.applySGS(r, z) }})
		}
	}
	cases = append(cases, tcase{"lapMulDot4", func() { sink = lapMulDot4(csr, b4, x4) }})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm-up
			if avg := testing.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", tc.name, avg)
			}
		})
	}
	_ = sink
}
