package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/linalg"
	"resistecc/internal/optimize"
	"resistecc/internal/sketch"
	"resistecc/internal/solver"
)

// ablationReps is how many times each timed cell of ablations 1–4 runs.
// The cells take microseconds to a few hundred milliseconds, so one run is
// at the mercy of the scheduler; the median of several can be ranked.
const ablationReps = 5

// medianTime runs fn ablationReps times and returns the median wall time.
// Each run must start from a fresh state, so that no run reuses another's
// work.
func medianTime(fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, ablationReps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[ablationReps/2], nil
}

// AblationHull quantifies design choice 1 of DESIGN.md: FASTQUERY's hull
// pruning versus APPROXQUERY's full scan, at equal sketches. Both columns
// time Distribution on one engine, the batch kernel on the shared worker
// pool, each run on a new index whose witness table starts empty, so only
// the candidate set differs: all n nodes against the l boundary nodes.
// Reported per network: hull size l, full-distribution query time with and
// without the hull (medians of ablationReps runs), and the accuracy cost.
func AblationHull(ctx context.Context, w io.Writer, opt Options, names []string) error {
	opt = opt.withDefaults()
	if names == nil {
		names = []string{"EmailUN", "Politician"}
	}
	header(w, "Ablation 1 — hull pruning (FASTQUERY) vs full scan (APPROXQUERY)")
	tw := newTable(w)
	fmt.Fprintln(tw, "Network\tn\tl\tscan all\tscan hull\tspeedup\tsigma(hull vs scan)")
	eps := opt.Epsilons[0]
	for _, name := range names {
		g, _, err := opt.proxy(name)
		if err != nil {
			return err
		}
		f, err := ecc.NewFastContext(ctx, g, opt.fastOptions(eps))
		if err != nil {
			return err
		}
		// APPROXQUERY over the same sketch: every node is a candidate.
		all := make([]int, g.N())
		for v := range all {
			all[v] = v
		}
		// Distribution cannot fail, so neither can these runs.
		var full, pruned []float64
		fullDur, _ := medianTime(func() error {
			full = (&ecc.Fast{Sk: f.Sk, Boundary: all}).Distribution()
			return nil
		})
		prunedDur, _ := medianTime(func() error {
			pruned = (&ecc.Fast{Sk: f.Sk, Boundary: f.Boundary}).Distribution()
			return nil
		})
		sigma, err := ecc.RelativeError(pruned, full)
		if err != nil {
			return err
		}
		speedup := float64(fullDur) / float64(prunedDur)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.1fx\t%.3f%%\n",
			name, g.N(), f.L(), fmtDur(fullDur), fmtDur(prunedDur), speedup, sigma*100)
	}
	return tw.Flush()
}

// AblationSketchDim quantifies design choice 2: accuracy as a function of
// the sketch dimension, against the theoretical ⌈24 ln n/ε²⌉. The build
// time is the median of ablationReps builds, each with its first
// Distribution.
func AblationSketchDim(ctx context.Context, w io.Writer, opt Options, name string, dims []int) error {
	opt = opt.withDefaults()
	if name == "" {
		name = "EmailUN"
	}
	if len(dims) == 0 {
		dims = []int{16, 32, 64, 128, 256, 512}
	}
	g, _, err := opt.proxy(name)
	if err != nil {
		return err
	}
	ex, err := ecc.NewExact(g)
	if err != nil {
		return err
	}
	exact := ex.Distribution()
	eps := opt.Epsilons[0]
	header(w, fmt.Sprintf("Ablation 2 — sketch dimension on %s (n=%d, theoretical d=%d at eps=%.1f)",
		name, g.N(), sketch.TheoreticalDim(g.N(), eps), eps))
	tw := newTable(w)
	fmt.Fprintln(tw, "dim\tbuild time\tsigma")
	for _, d := range dims {
		o := opt
		o.Dim = d
		var approx []float64
		dur, err := medianTime(func() error {
			ap, err := ecc.NewApproxContext(ctx, g, o.sketchOptions(eps))
			if err != nil {
				return err
			}
			approx = ap.Distribution()
			return nil
		})
		if err != nil {
			return err
		}
		sigma, err := ecc.RelativeError(approx, exact)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%s\t%.3f%%\n", d, fmtDur(dur), sigma*100)
	}
	return tw.Flush()
}

// AblationSolver quantifies design choice 3: CG preconditioners on one
// representative solve. Each time is the median of ablationReps solves,
// each from a zero x.
func AblationSolver(ctx context.Context, w io.Writer, opt Options, name string) error {
	opt = opt.withDefaults()
	if name == "" {
		name = "EmailUN"
	}
	g, _, err := opt.proxy(name)
	if err != nil {
		return err
	}
	header(w, fmt.Sprintf("Ablation 3 — solver preconditioner on %s (n=%d m=%d)", name, g.N(), g.M()))
	tw := newTable(w)
	fmt.Fprintln(tw, "preconditioner\titers\ttime")
	csr := g.ToCSR()
	b := make([]float64, g.N())
	// A representative hard RHS: unit dipole between two peripheral nodes.
	s, err := peripheralSource(ctx, g, opt.Seed)
	if err != nil {
		return err
	}
	_, far := g.Eccentricity(s)
	b[s], b[far] = 1, -1
	for _, pc := range []solver.Preconditioner{solver.None, solver.Jacobi, solver.SGS} {
		lap, err := solver.NewLap(csr, solver.Options{Precond: pc})
		if err != nil {
			return err
		}
		var iters int
		dur, err := medianTime(func() (err error) {
			iters, err = lap.Solve(b, make([]float64, g.N()))
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\n", pc, iters, fmtDur(dur))
	}
	return tw.Flush()
}

// AblationShermanMorrison quantifies design choice 4: the SIMPLE greedy's
// O(n)-per-candidate Sherman–Morrison scoring (optimize.EccAfterEdge, the
// scorer Simple and Exhaustive run) versus naive re-inversion. Each time is
// the median of ablationReps sweeps over the candidates.
func AblationShermanMorrison(w io.Writer, opt Options, n int) error {
	opt = opt.withDefaults()
	if n <= 0 {
		n = 150
	}
	g := graph.BarabasiAlbert(n, 3, opt.Seed)
	s := 0
	header(w, fmt.Sprintf("Ablation 4 — Sherman–Morrison greedy vs naive re-inversion (n=%d)", n))
	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		return err
	}
	cands := g.SourceCandidates(s)
	if len(cands) > 40 {
		cands = cands[:40]
	}
	// Sherman–Morrison scoring, which cannot fail.
	var smBest graph.Edge
	var smVal float64
	smDur, _ := medianTime(func() error {
		smBest, smVal = graph.Edge{}, math.Inf(1)
		for _, e := range cands {
			c := optimize.EccAfterEdge(lp, s, e.U, e.V)
			if c < smVal {
				smVal, smBest = c, e
			}
		}
		return nil
	})
	// Naive scoring: clone + add edge + full pseudoinverse per candidate.
	var nvBest graph.Edge
	var nvVal float64
	nvDur, err := medianTime(func() error {
		nvBest, nvVal = graph.Edge{}, math.Inf(1)
		for _, e := range cands {
			h := g.Clone()
			if err := h.AddEdge(e.U, e.V); err != nil {
				return err
			}
			lph, err := linalg.Pseudoinverse(h)
			if err != nil {
				return err
			}
			c, _ := linalg.EccentricityFromPinv(lph, s)
			if c < nvVal {
				nvVal, nvBest = c, e
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "method\tbest edge\tc(s)\ttime")
	fmt.Fprintf(tw, "Sherman–Morrison\t%v\t%.6f\t%s\n", smBest, smVal, fmtDur(smDur))
	fmt.Fprintf(tw, "naive re-inversion\t%v\t%.6f\t%s\n", nvBest, nvVal, fmtDur(nvDur))
	fmt.Fprintf(tw, "speedup\t\t\t%.1fx\n", float64(nvDur)/float64(smDur))
	return tw.Flush()
}
