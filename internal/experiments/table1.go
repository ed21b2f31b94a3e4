package experiments

import (
	"fmt"
	"io"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
)

// Table1Row is one measured row of Table I.
type Table1Row struct {
	Name          string
	N, M          int
	AvgDegree     float64
	Gamma         float64
	Phi, R        float64 // measured resistance radius and diameter
	PaperPhi      float64
	PaperR        float64
	CentralNodes  int
	PaperN        int
	PaperM        int
	PaperAvgDeg   float64
	PaperGammaVal float64
}

// Table1 reproduces Table I: dataset statistics plus resistance radius φ and
// resistance diameter R for the four distribution-analysis networks, via
// EXACTQUERY on the scaled proxies.
func Table1(w io.Writer, opt Options) ([]Table1Row, error) {
	opt = opt.withDefaults()
	header(w, "Table I — dataset statistics, resistance radius and diameter")
	fmt.Fprintf(w, "proxies at scale %.3g; paper values in parentheses\n", opt.Scale)
	tw := newTable(w)
	fmt.Fprintln(tw, "Network\tn\tm\td_avg\tgamma\tphi\tR\t|center|")
	var rows []Table1Row
	for _, name := range dataset.TableI() {
		g, in, err := opt.proxy(name)
		if err != nil {
			return nil, err
		}
		ex, err := ecc.NewExact(g)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %s: %w", name, err)
		}
		sum := ecc.Summarize(ex.Distribution())
		st := g.SummarizeFast()
		row := Table1Row{
			Name: name, N: st.N, M: st.M, AvgDegree: st.AvgDegree,
			Gamma: st.PowerLawGamma, Phi: sum.Radius, R: sum.Diameter,
			PaperPhi: in.PaperPhi, PaperR: in.PaperR,
			CentralNodes: len(sum.Center),
			PaperN:       in.N, PaperM: in.M,
			PaperAvgDeg: in.AvgDegree, PaperGammaVal: in.Gamma,
		}
		rows = append(rows, row)
		fmt.Fprintf(tw, "%s\t%d (%d)\t%d (%d)\t%.2f (%.2f)\t%.2f (%.2f)\t%.2f (%.2f)\t%.2f (%.2f)\t%d\n",
			row.Name, row.N, row.PaperN, row.M, row.PaperM,
			row.AvgDegree, row.PaperAvgDeg, row.Gamma, row.PaperGammaVal,
			row.Phi, row.PaperPhi, row.R, row.PaperR, row.CentralNodes)
	}
	return rows, tw.Flush()
}
