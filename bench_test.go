// Benchmarks regenerating the paper's tables and figures (one benchmark
// family per evaluation artifact) plus the DESIGN.md ablations. Run:
//
//	go test -bench=. -benchmem
//
// Sizes are scaled so the whole suite completes in minutes; EXPERIMENTS.md
// records a full `reccexp` run at larger scales. The structural comparisons
// (exact-vs-fast crossover, optimizer ranking) are what these benches
// preserve, not the paper's absolute wall-clock numbers.
package resistecc

import (
	"context"
	"sync"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/linalg"
	"resistecc/internal/optimize"
	"resistecc/internal/pagerank"
	"resistecc/internal/sketch"
	"resistecc/internal/solver"
	"resistecc/internal/stats"
)

// benchGraphs caches proxies so every benchmark in a family sees the same
// input without repaying generation per run.
var benchGraphs sync.Map

func benchProxy(b *testing.B, name string, scale float64) *graph.Graph {
	b.Helper()
	key := name + "@" + string(rune(int('0')+int(scale*1000)%10)) // cheap cache key per (name,scale)
	type entry struct {
		g   *graph.Graph
		err error
	}
	if v, ok := benchGraphs.Load(key); ok {
		e := v.(entry)
		if e.err != nil {
			b.Fatal(e.err)
		}
		return e.g
	}
	in, err := dataset.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := in.Proxy(scale)
	benchGraphs.Store(key, entry{g, err})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSketchOpts(dim int) sketch.Options {
	return sketch.Options{Epsilon: 0.3, Dim: dim, Seed: 1}
}

// --- Table I: exact radius/diameter of the distribution-analysis networks.

func BenchmarkTableI_ExactRadiusDiameter(b *testing.B) {
	g := benchProxy(b, "Politician", 0.05) // ≈ 300 nodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex, err := ecc.NewExact(g)
		if err != nil {
			b.Fatal(err)
		}
		sum := ecc.Summarize(ex.Distribution())
		if sum.Diameter < sum.Radius {
			b.Fatal("inconsistent summary")
		}
	}
}

// --- Figure 2: distribution histogram + Burr XII fit.

func BenchmarkFig2_DistributionAndBurrFit(b *testing.B) {
	g := benchProxy(b, "Government", 0.05)
	ex, err := ecc.NewExact(g)
	if err != nil {
		b.Fatal(err)
	}
	dist := ex.Distribution()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fit, err := stats.FitBurr(dist)
		if err != nil {
			b.Fatal(err)
		}
		if fit.C <= 0 {
			b.Fatal("bad fit")
		}
	}
}

// --- Table II: EXACTQUERY vs FASTQUERY full-distribution time, per ε.

func BenchmarkTableII_ExactQuery(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.5) // ≈ 570 nodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex, err := ecc.NewExact(g)
		if err != nil {
			b.Fatal(err)
		}
		_ = ex.Distribution()
	}
}

func benchFastQuery(b *testing.B, eps float64) {
	g := benchProxy(b, "EmailUN", 0.5)
	dim := int(12/(eps*eps)) + 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := ecc.NewFastContext(context.Background(), g, ecc.FastOptions{
			Sketch: sketch.Options{Epsilon: eps, Dim: dim, Seed: 1},
			Hull:   hull.Options{MaxVertices: 64},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = f.Distribution()
	}
}

func BenchmarkTableII_FastQuery_eps03(b *testing.B) { benchFastQuery(b, 0.3) }
func BenchmarkTableII_FastQuery_eps02(b *testing.B) { benchFastQuery(b, 0.2) }
func BenchmarkTableII_FastQuery_eps01(b *testing.B) { benchFastQuery(b, 0.1) }

// --- Figure 7: FASTQUERY distribution on a large-network proxy, where the
// exact method is out of reach.

func BenchmarkFig7_FastQueryLarge(b *testing.B) {
	g := benchProxy(b, "Web-baidu-baike", 0.002) // ≈ 4200 nodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := ecc.NewFastContext(context.Background(), g, ecc.FastOptions{
			Sketch: benchSketchOpts(64),
			Hull:   hull.Options{MaxVertices: 48},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = f.Distribution()
	}
}

// --- Figure 8: exhaustive optimum vs the exact greedy on a tiny sociogram.

func BenchmarkFig8_ExhaustiveOPT(b *testing.B) {
	g := benchProxy(b, "Kangaroo", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := optimize.Exhaustive(g, optimize.REMD, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_SimpleGreedy(b *testing.B) {
	g := benchProxy(b, "Kangaroo", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Simple(g, optimize.REMD, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 9 / Table III: one optimizer run per heuristic at k=5 on a
// mid-size proxy (relative ordering is the paper's reported shape:
// CenMinRecc fastest, MinRecc slowest and most effective).

func benchOptimizer(b *testing.B, run func(context.Context, *graph.Graph, int, int, optimize.FastOptions) (*optimize.Result, error)) {
	g := benchProxy(b, "EmailUN", 0.3)
	s := 0
	fopt := optimize.FastOptions{
		Sketch:        benchSketchOpts(48),
		Hull:          hull.Options{MaxVertices: 10},
		MaxCandidates: 8,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := run(context.Background(), g, s, 5, fopt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIII_FarMinRecc(b *testing.B) { benchOptimizer(b, optimize.FarMinRecc) }
func BenchmarkTableIII_CenMinRecc(b *testing.B) { benchOptimizer(b, optimize.CenMinRecc) }
func BenchmarkTableIII_ChMinRecc(b *testing.B)  { benchOptimizer(b, optimize.ChMinRecc) }
func BenchmarkTableIII_MinRecc(b *testing.B)    { benchOptimizer(b, optimize.MinRecc) }

func BenchmarkFig9_DEBaseline(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.Degree(g, optimize.REM, 0, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_PKBaseline(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := optimize.PageRank(g, optimize.REM, 0, 5, pagerank.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1 (DESIGN.md): hull pruning on vs off at a fixed sketch. Both
// benchmarks time the batch kernel itself on one goroutine over every node;
// only the candidate set differs (the hull boundary or all n nodes).
// Distribution would answer every iteration after the first from the
// index's witness table.

func benchHullScan(b *testing.B, useHull bool) {
	g := benchProxy(b, "Politician", 0.1)
	f, err := ecc.NewFastContext(context.Background(), g, ecc.FastOptions{
		Sketch: benchSketchOpts(96),
		Hull:   hull.Options{MaxVertices: 48},
	})
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	cand := all
	if useHull {
		cand = f.Boundary
	}
	out, arg := make([]float64, g.N()), make([]int, g.N())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Sk.EccentricityBatch(all, cand, out, arg)
	}
}

func BenchmarkAblationHull_Pruned(b *testing.B)   { benchHullScan(b, true) }
func BenchmarkAblationHull_FullScan(b *testing.B) { benchHullScan(b, false) }

// --- Ablation 2: sketch dimension.

func benchSketchDim(b *testing.B, dim int) {
	g := benchProxy(b, "EmailUN", 0.3)
	csr := g.ToCSR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sketch.NewContext(context.Background(), csr, benchSketchOpts(dim)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSketchDim32(b *testing.B)  { benchSketchDim(b, 32) }
func BenchmarkAblationSketchDim128(b *testing.B) { benchSketchDim(b, 128) }
func BenchmarkAblationSketchDim512(b *testing.B) { benchSketchDim(b, 512) }

// --- Ablation 3: solver preconditioners on a hard (path-like) instance.

func benchSolver(b *testing.B, pc solver.Preconditioner) {
	g := graph.Path(3000)
	csr := g.ToCSR()
	rhs := make([]float64, g.N())
	rhs[0], rhs[g.N()-1] = 1, -1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lap, err := solver.NewLap(csr, solver.Options{Precond: pc})
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, g.N())
		if _, err := lap.Solve(rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSolverNone(b *testing.B)   { benchSolver(b, solver.None) }
func BenchmarkAblationSolverJacobi(b *testing.B) { benchSolver(b, solver.Jacobi) }
func BenchmarkAblationSolverSGS(b *testing.B)    { benchSolver(b, solver.SGS) }

// --- Ablation 4: Sherman–Morrison candidate scoring (the O(n) scorer of the
// exact greedies) vs naive re-inversion.

func BenchmarkAblationShermanMorrison(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.2)
	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		b.Fatal(err)
	}
	cands := g.SourceCandidates(0)[:32]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range cands {
			_ = optimize.EccAfterEdge(lp, 0, e.U, e.V)
		}
	}
}

func BenchmarkAblationNaiveReinversion(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.2)
	cands := g.SourceCandidates(0)[:4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, e := range cands {
			h := g.Clone()
			if err := h.AddEdge(e.U, e.V); err != nil {
				b.Fatal(err)
			}
			if _, err := linalg.Pseudoinverse(h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Core kernels (profile-level benches used while tuning).

func BenchmarkKernelLapMul(b *testing.B) {
	g := benchProxy(b, "Government", 0.2)
	csr := g.ToCSR()
	x := make([]float64, g.N())
	y := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		csr.LapMul(x, y)
	}
}

func BenchmarkKernelSketchResistance(b *testing.B) {
	g := benchProxy(b, "EmailUN", 0.3)
	sk, err := sketch.NewContext(context.Background(), g.ToCSR(), benchSketchOpts(128))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sk.Resistance(i%g.N(), (i*7+1)%g.N())
	}
}

func BenchmarkKernelPseudoinverse(b *testing.B) {
	g := benchProxy(b, "Unicode-language", 0.5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Pseudoinverse(g); err != nil {
			b.Fatal(err)
		}
	}
}
