package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
)

// Table2Row records one network's Table II measurements.
type Table2Row struct {
	Name   string
	N, M   int
	Exact  time.Duration             // EXACTQUERY full-distribution time (0 if skipped)
	Fast   map[float64]time.Duration // ε → FASTQUERY full-distribution time
	Sigma  map[float64]float64       // ε → measured relative error (fraction)
	HullL  map[float64]int           // ε → boundary size l
	Paper  *dataset.Info
	Capped bool // EXACTQUERY skipped (n above ExactLimit)
}

// table2Names selects the Table II corpus: all scale-free registry networks,
// small and large.
func table2Names(includeLarge bool) []string {
	var names []string
	for _, in := range dataset.All() {
		if in.Family != dataset.ScaleFree {
			continue
		}
		if in.Large && !includeLarge {
			continue
		}
		names = append(names, in.Name)
	}
	return names
}

// Table2 reproduces Table II: running time of EXACTQUERY vs FASTQUERY for
// ε ∈ {0.3, 0.2, 0.1} plus the relative error σ (Eq. 8) of FASTQUERY's
// distribution. Large (asterisked) networks skip EXACTQUERY, exactly as the
// paper's "—" entries do — there the exact method is infeasible, here the
// same cutoff is enforced by Options.ExactLimit.
//
// names narrows the corpus (nil = every scale-free registry network,
// including the large ones at Options.LargeScale).
func Table2(ctx context.Context, w io.Writer, opt Options, names []string) ([]Table2Row, error) {
	opt = opt.withDefaults()
	if names == nil {
		names = table2Names(true)
	}
	header(w, "Table II — EXACTQUERY vs FASTQUERY running time and relative error")
	fmt.Fprintf(w, "scale=%.3g largeScale=%.3g dim(eps)=%v hullCap=%d\n",
		opt.Scale, opt.LargeScale, func() []int {
			var d []int
			for _, e := range opt.Epsilons {
				d = append(d, opt.dimFor(e))
			}
			return d
		}(), opt.MaxHullVertices)
	tw := newTable(w)
	fmt.Fprint(tw, "Network\tn\tm\tEXACT")
	for _, e := range opt.Epsilons {
		fmt.Fprintf(tw, "\tFAST e=%.1f", e)
	}
	for _, e := range opt.Epsilons {
		fmt.Fprintf(tw, "\tsigma e=%.1f", e)
	}
	fmt.Fprintln(tw, "\tl")

	var rows []Table2Row
	for _, name := range names {
		g, in, err := opt.proxy(name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name: name, N: g.N(), M: g.M(), Paper: in,
			Fast:  map[float64]time.Duration{},
			Sigma: map[float64]float64{},
			HullL: map[float64]int{},
		}
		var exactDist []float64
		if g.N() <= opt.ExactLimit {
			d, err := timed(func() error {
				ex, err := ecc.NewExact(g)
				if err != nil {
					return err
				}
				exactDist = ex.Distribution()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 %s exact: %w", name, err)
			}
			row.Exact = d
		} else {
			row.Capped = true
		}
		for _, eps := range opt.Epsilons {
			var fastDist []float64
			var l int
			d, err := timed(func() error {
				f, err := ecc.NewFastContext(ctx, g, opt.fastOptions(eps))
				if err != nil {
					return err
				}
				l = f.L()
				fastDist = f.Distribution()
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: table2 %s fast eps=%g: %w", name, eps, err)
			}
			row.Fast[eps] = d
			row.HullL[eps] = l
			if exactDist != nil {
				sigma, err := ecc.RelativeError(fastDist, exactDist)
				if err != nil {
					return nil, err
				}
				row.Sigma[eps] = sigma
			}
		}
		rows = append(rows, row)

		exact := "-"
		if !row.Capped {
			exact = fmtDur(row.Exact)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s", row.Name, row.N, row.M, exact)
		for _, e := range opt.Epsilons {
			fmt.Fprintf(tw, "\t%s", fmtDur(row.Fast[e]))
		}
		for _, e := range opt.Epsilons {
			if row.Capped {
				fmt.Fprint(tw, "\t-")
			} else {
				fmt.Fprintf(tw, "\t%.2f%%", row.Sigma[e]*100)
			}
		}
		fmt.Fprintf(tw, "\t%d\n", row.HullL[opt.Epsilons[0]])
	}
	return rows, tw.Flush()
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
