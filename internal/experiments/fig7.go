package experiments

import (
	"context"
	"fmt"
	"io"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
	"resistecc/internal/stats"
)

// Fig7Row summarizes one large network's FASTQUERY distribution.
type Fig7Row struct {
	Name     string
	N, M     int
	L        int // hull boundary size
	Radius   float64
	Diameter float64
	Skewness float64
	Hist     *stats.Histogram
}

// Fig7 reproduces Figure 7: the approximate resistance eccentricity
// distribution of the four largest networks, computed with FASTQUERY
// (EXACTQUERY is infeasible there). The qualitative claim re-checked here:
// asymmetry, rightward skew and a pronounced heavy tail on every network.
func Fig7(ctx context.Context, w io.Writer, opt Options) ([]Fig7Row, error) {
	opt = opt.withDefaults()
	header(w, "Figure 7 — FASTQUERY distribution on the largest networks")
	fmt.Fprintf(w, "large proxies at scale %.4g\n", opt.LargeScale)
	tw := newTable(w)
	fmt.Fprintln(tw, "Network\tn\tm\tl\tphi\tR\tskewness")
	eps := opt.Epsilons[0]
	var rows []Fig7Row
	for _, name := range dataset.Largest4() {
		g, _, err := opt.proxy(name)
		if err != nil {
			return nil, err
		}
		f, err := ecc.NewFastContext(ctx, g, opt.fastOptions(eps))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig7 %s: %w", name, err)
		}
		dist := f.Distribution()
		sum := ecc.Summarize(dist)
		mom := stats.ComputeMoments(dist)
		hist, err := stats.NewHistogram(dist, 30)
		if err != nil {
			return nil, err
		}
		row := Fig7Row{
			Name: name, N: g.N(), M: g.M(), L: f.L(),
			Radius: sum.Radius, Diameter: sum.Diameter,
			Skewness: mom.Skewness, Hist: hist,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\n",
			row.Name, row.N, row.M, row.L, row.Radius, row.Diameter, row.Skewness)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	for _, row := range rows {
		fmt.Fprintf(w, "\n%s:\n", row.Name)
		renderHistogram(w, row.Hist)
	}
	return rows, nil
}
