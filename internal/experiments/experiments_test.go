package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func tinyOpts() Options {
	return Options{
		Scale:           0.03,
		LargeScale:      0.0006,
		Epsilons:        []float64{0.3},
		Dim:             32,
		K:               4,
		Seed:            1,
		MaxHullVertices: 12,
		MaxCandidates:   8,
		ExactLimit:      2500,
	}
}

func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table1(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Phi <= 0 || r.R < r.Phi {
			t.Fatalf("%s: phi=%g R=%g", r.Name, r.Phi, r.R)
		}
		if r.CentralNodes < 1 {
			t.Fatalf("%s: no central nodes", r.Name)
		}
		// Paper-reported metadata must flow through for the comparison.
		if r.PaperPhi <= 0 || r.PaperR <= r.PaperPhi {
			t.Fatalf("%s: paper metadata missing", r.Name)
		}
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatal("missing banner")
	}
}

func TestFig2Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig2(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	positiveSkew := 0
	for _, r := range rows {
		if r.Fit.C <= 0 || r.Fit.K <= 0 {
			t.Fatalf("%s: bad Burr fit %+v", r.Name, r.Fit)
		}
		if r.Skewness > 0 {
			positiveSkew++
		}
	}
	// §IV-B: right skewness should be the norm on scale-free proxies.
	if positiveSkew < 3 {
		t.Fatalf("only %d of 4 networks right-skewed", positiveSkew)
	}
	if !strings.Contains(buf.String(), "#") {
		t.Fatal("histogram rendering missing")
	}
}

func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	rows, err := Table2(context.Background(), &buf, opt, []string{"Unicode-language", "EmailUN"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Capped {
			t.Fatalf("%s should not be capped at this scale", r.Name)
		}
		for _, eps := range opt.Epsilons {
			if r.Fast[eps] <= 0 {
				t.Fatalf("%s: no fast timing", r.Name)
			}
			// The measured σ must respect (generously) the ε guarantee.
			if r.Sigma[eps] > eps {
				t.Fatalf("%s: sigma %.3f > eps %.3f", r.Name, r.Sigma[eps], eps)
			}
			if r.HullL[eps] <= 0 {
				t.Fatalf("%s: hull size", r.Name)
			}
		}
	}
}

func TestTable2LargeSkipsExact(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	opt.ExactLimit = 10 // force the cap (EmailUN proxy has ≈ 34 nodes here)
	rows, err := Table2(context.Background(), &buf, opt, []string{"EmailUN"})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Capped || rows[0].Exact != 0 {
		t.Fatal("exact should be skipped above the limit")
	}
	if !strings.Contains(buf.String(), "-") {
		t.Fatal("dash for skipped exact missing")
	}
}

func TestFig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(context.Background(), &buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Diameter < r.Radius || r.L <= 0 {
			t.Fatalf("%s: %+v", r.Name, r)
		}
	}
}

func TestFig8Smoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	opt.K = 2 // keep exhaustive search fast
	rows, err := Fig8(context.Background(), &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		opt := r.Curves["OPT-REMD"]
		sim := r.Curves["SIM-REMD"]
		for ki := range r.K {
			// OPT is a lower bound for every REMD heuristic.
			if sim[ki] < opt[ki]-1e-9 {
				t.Fatalf("%s k=%d: SIM %.4f below OPT %.4f", r.Name, r.K[ki], sim[ki], opt[ki])
			}
			// OPT-REM dominates OPT-REMD (larger candidate set).
			if r.Curves["OPT-REM"][ki] > opt[ki]+1e-9 {
				t.Fatalf("%s k=%d: OPT-REM above OPT-REMD", r.Name, r.K[ki])
			}
		}
		// The paper's claim: greedy heuristics are near-optimal on these
		// tiny dense networks (within a small factor at k ≤ 2).
		last := len(r.K) - 1
		if sim[last] > opt[last]*1.25+1e-9 {
			t.Fatalf("%s: SIM-REMD %.4f far from OPT %.4f", r.Name, sim[last], opt[last])
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	opt.K = 5
	rows, err := Fig9(context.Background(), &buf, opt, []string{"EmailUN"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	want := []string{
		"FarMinRecc", "CenMinRecc", "ChMinRecc", "MinRecc",
		"DE-REMD", "DE-REM", "PK-REMD", "PK-REM", "PATH-REMD", "PATH-REM",
	}
	for _, l := range want {
		curve, ok := r.Curves[l]
		if !ok {
			t.Fatalf("missing curve %s", l)
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1]+1e-9 {
				t.Fatalf("%s not monotone at k=%d", l, i)
			}
		}
	}
	// Our heuristics should beat the weakest baseline at the budget end.
	k := opt.K
	best := r.Curves["MinRecc"][k]
	if far := r.Curves["FarMinRecc"][k]; far < best {
		best = far
	}
	if best > r.Curves["PK-REM"][k]+1e-9 && best > r.Curves["DE-REM"][k]+1e-9 {
		t.Fatalf("heuristics (%.4f) beaten by both PK-REM (%.4f) and DE-REM (%.4f)",
			best, r.Curves["PK-REM"][k], r.Curves["DE-REM"][k])
	}
}

func TestFig9LargeSmoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	opt.K = 2
	opt.LargeScale = 0.0002
	opt.MaxCandidates = 6
	opt.MaxHullVertices = 8
	rows, err := Fig9Large(context.Background(), &buf, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Curves["PK-REM"]; ok {
			t.Fatal("large mode must omit PK baselines")
		}
		if _, ok := r.Curves["DE-REM"]; !ok {
			t.Fatal("large mode keeps DE-REM")
		}
	}
}

func TestTable3Smoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	opt.K = 2
	opt.LargeScale = 0.0002
	opt.MaxCandidates = 6
	opt.MaxHullVertices = 8
	rows, err := Table3(context.Background(), &buf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		for _, algo := range []string{"FarMinRecc", "CenMinRecc", "ChMinRecc", "MinRecc"} {
			if r.Seconds[algo] <= 0 {
				t.Fatalf("%s: missing timing for %s", r.Name, algo)
			}
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	var buf bytes.Buffer
	opt := tinyOpts()
	if err := AblationHull(context.Background(), &buf, opt, []string{"EmailUN"}); err != nil {
		t.Fatal(err)
	}
	if err := AblationSketchDim(context.Background(), &buf, opt, "EmailUN", []int{16, 64}); err != nil {
		t.Fatal(err)
	}
	if err := AblationSolver(context.Background(), &buf, opt, "EmailUN"); err != nil {
		t.Fatal(err)
	}
	if err := AblationShermanMorrison(&buf, opt, 60); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banner := range []string{"Ablation 1", "Ablation 2", "Ablation 3", "Ablation 4"} {
		if !strings.Contains(out, banner) {
			t.Fatalf("missing %s", banner)
		}
	}
}
