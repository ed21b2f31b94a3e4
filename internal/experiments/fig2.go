package experiments

import (
	"fmt"
	"io"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
	"resistecc/internal/stats"
)

// Fig2Row summarizes the resistance-eccentricity distribution of one network
// and its Burr XII fit (the paper's Figure 2 panels).
type Fig2Row struct {
	Name     string
	N        int
	Radius   float64
	Diameter float64
	Mean     float64
	Skewness float64
	Kurtosis float64
	Fit      stats.BurrFit
	Hist     *stats.Histogram
}

// Fig2 reproduces Figure 2: the resistance eccentricity distribution of the
// four Table I networks with a fitted Burr Type XII density. The paper's
// qualitative claims — asymmetry, rightward skew, pronounced heavy tail —
// are checked through the sample skewness (positive) and the mass
// concentration just above the radius.
func Fig2(w io.Writer, opt Options) ([]Fig2Row, error) {
	opt = opt.withDefaults()
	header(w, "Figure 2 — resistance eccentricity distribution + Burr fit")
	tw := newTable(w)
	fmt.Fprintln(tw, "Network\tn\tphi\tR\tmean\tskewness\tkurtosis\tBurr c\tBurr k\tBurr lambda\tKS")
	var rows []Fig2Row
	for _, name := range dataset.TableI() {
		g, _, err := opt.proxy(name)
		if err != nil {
			return nil, err
		}
		ex, err := ecc.NewExact(g)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig2 %s: %w", name, err)
		}
		dist := ex.Distribution()
		sum := ecc.Summarize(dist)
		mom := stats.ComputeMoments(dist)
		fit, err := stats.FitBurr(dist)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig2 %s burr fit: %w", name, err)
		}
		hist, err := stats.NewHistogram(dist, 30)
		if err != nil {
			return nil, err
		}
		row := Fig2Row{
			Name: name, N: g.N(),
			Radius: sum.Radius, Diameter: sum.Diameter,
			Mean: mom.Mean, Skewness: mom.Skewness, Kurtosis: mom.ExcessKurtosis,
			Fit: *fit, Hist: hist,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.4f\n",
			row.Name, row.N, row.Radius, row.Diameter, row.Mean,
			row.Skewness, row.Kurtosis, fit.C, fit.K, fit.Lambda, fit.KS)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	// ASCII sketch of each histogram (x: eccentricity bins, y: node counts),
	// the visual analogue of the Figure 2 panels.
	for _, row := range rows {
		fmt.Fprintf(w, "\n%s (phi=%.2f R=%.2f):\n", row.Name, row.Radius, row.Diameter)
		renderHistogram(w, row.Hist)
	}
	return rows, nil
}

// renderHistogram prints a compact horizontal-bar histogram.
func renderHistogram(w io.Writer, h *stats.Histogram) {
	maxC := 0
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC == 0 {
		return
	}
	const width = 50
	for i, c := range h.Counts {
		bar := c * width / maxC
		fmt.Fprintf(w, "  %8.3f |%s %d\n", h.BinCenter(i), repeat('#', bar), c)
	}
}

func repeat(ch byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = ch
	}
	return string(b)
}
