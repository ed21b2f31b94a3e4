// Command recc is the command-line front end of the resistecc library:
// generate synthetic networks, inspect structural statistics, query exact or
// approximate resistance eccentricities, compute distributions with Burr
// fits, and run the edge-addition optimizers.
//
// Usage:
//
//	recc gen      -type ba -n 1000 -deg 4 -seed 1 -out graph.txt
//	recc stats    -in graph.txt
//	recc query    -in graph.txt -nodes 0,5,9 [-exact] [-eps 0.2] [-dim 128]
//	recc dist     -in graph.txt [-exact] [-eps 0.2] [-burr] [-bins 30]
//	recc optimize -in graph.txt -source 0 -k 10 -algo minrecc [-eps 0.3]
//	recc snapshot -in graph.txt -data-dir ./idx   (or -out index.snap)
//	recc inspect  -path ./idx                     (or a .snap or trace file)
//	recc replay   -trace ops.trc -in graph.txt    (or -target http://host:8080)
//	recc loadgen  -nodes 1000 -ops 10000 -out ops.trc [-target http://host:8080]
//
// Graphs are whitespace edge lists (KONECT style); only the largest
// connected component is analyzed, mirroring the paper's preprocessing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"resistecc"
)

func main() {
	// The root context is minted once, here; ^C cancels the index build
	// instead of leaving it to run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recc:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "query":
		return cmdQuery(ctx, args[1:])
	case "dist":
		return cmdDist(ctx, args[1:])
	case "optimize":
		return cmdOptimize(ctx, args[1:])
	case "snapshot":
		return cmdSnapshot(ctx, args[1:])
	case "inspect":
		return cmdInspect(args[1:])
	case "replay":
		return cmdReplay(ctx, args[1:])
	case "loadgen":
		return cmdLoadgen(ctx, args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: recc <gen|stats|query|dist|optimize|snapshot|inspect|replay|loadgen> [flags]
  gen         generate a synthetic network and write an edge list
  stats       structural statistics of a network's LCC
  query       resistance eccentricity of given nodes
  dist        full resistance eccentricity distribution (+ optional Burr fit)
  optimize    minimize c(s) by adding k edges
  snapshot    build an index offline and persist it (warm reccd starts)
  inspect     examine a snapshot file, durable store directory, or trace file
  replay      re-execute a recorded trace with bit-exact verification
  loadgen     synthesize a deterministic workload trace and/or drive it
run 'recc <subcommand> -h' for flags`)
}

func loadLCC(path string) (*resistecc.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	g, _, err := resistecc.LoadEdgeList(path)
	if err != nil {
		return nil, err
	}
	lcc, _ := g.LargestComponent()
	if lcc.N() < g.N() {
		fmt.Fprintf(os.Stderr, "recc: using LCC with %d of %d nodes\n", lcc.N(), g.N())
	}
	return lcc, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	typ := fs.String("type", "ba", "generator: ba|plc|ws|er|path|cycle|star|complete|lollipop")
	n := fs.Int("n", 1000, "node count")
	deg := fs.Int("deg", 4, "attachment/lattice degree parameter")
	tri := fs.Float64("tri", 0.4, "triangle probability (plc)")
	beta := fs.Float64("beta", 0.1, "rewiring probability (ws)")
	p := fs.Float64("p", 0.01, "edge probability (er)")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "", "output edge-list path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var (
		g   *resistecc.Graph
		err error
	)
	switch *typ {
	case "ba":
		g, err = resistecc.BarabasiAlbert(*n, *deg, *seed)
	case "plc":
		g, err = resistecc.PowerlawCluster(*n, *deg, *tri, *seed)
	case "ws":
		g, err = resistecc.WattsStrogatz(*n, *deg, *beta, *seed)
	case "er":
		g, err = resistecc.ErdosRenyi(*n, *p, *seed)
	case "path":
		g = resistecc.PathGraph(*n)
	case "cycle":
		g = resistecc.CycleGraph(*n)
	case "star":
		g = resistecc.StarGraph(*n)
	case "complete":
		g = resistecc.CompleteGraph(*n)
	case "lollipop":
		g = resistecc.LollipopGraph(*deg, *n)
	default:
		return fmt.Errorf("unknown generator %q", *typ)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := g.WriteEdgeList(f); err != nil {
			f.Close()
			return err
		}
		// Close is where delayed write-back errors surface; a deferred
		// unchecked Close could report success for a torn file.
		if err := f.Close(); err != nil {
			return err
		}
	} else if err := g.WriteEdgeList(os.Stdout); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recc: wrote %d nodes, %d edges\n", g.N(), g.M())
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	fast := fs.Bool("fast", false, "skip the clustering coefficient")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadLCC(*in)
	if err != nil {
		return err
	}
	var st resistecc.GraphStats
	if *fast {
		st = g.StatsFast()
	} else {
		st = g.Stats()
	}
	fmt.Printf("nodes          %d\n", st.N)
	fmt.Printf("edges          %d\n", st.M)
	fmt.Printf("avg degree     %.3f\n", st.AvgDegree)
	fmt.Printf("degree range   [%d, %d]\n", st.MinDegree, st.MaxDegree)
	fmt.Printf("powerlaw gamma %.3f\n", st.PowerLawGamma)
	if !*fast {
		fmt.Printf("clustering     %.4f\n", st.Clustering)
	}
	return nil
}

func parseNodes(s string, n int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("-nodes is required (comma-separated ids)")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %v", p, err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("node %d out of range (n=%d)", v, n)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	nodesArg := fs.String("nodes", "", "comma-separated node ids")
	exact := fs.Bool("exact", false, "use EXACTQUERY (O(n^3) preprocessing)")
	eps := fs.Float64("eps", 0.2, "approximation parameter for FASTQUERY")
	dim := fs.Int("dim", 0, "sketch dimension override (0 = theoretical)")
	hullCap := fs.Int("hullcap", 64, "max hull vertices (0 = certified hull)")
	seed := fs.Int64("seed", 1, "sketch seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadLCC(*in)
	if err != nil {
		return err
	}
	nodes, err := parseNodes(*nodesArg, g.N())
	if err != nil {
		return err
	}
	var vals []resistecc.Eccentricity
	if *exact {
		idx, err := resistecc.NewExactIndex(ctx, g)
		if err != nil {
			return err
		}
		vals, err = idx.Query(nodes)
		if err != nil {
			return err
		}
	} else {
		idx, err := resistecc.NewFastIndex(ctx, g,
			resistecc.WithEpsilon(*eps), resistecc.WithDim(*dim),
			resistecc.WithSeed(*seed), resistecc.WithMaxHullVertices(*hullCap))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recc: FASTQUERY d=%d l=%d\n", idx.SketchDim(), idx.BoundarySize())
		vals, err = idx.Query(nodes)
		if err != nil {
			return err
		}
	}
	for _, v := range vals {
		fmt.Printf("c(%d) = %.6f  (farthest node %d)\n", v.Node, v.Value, v.Farthest)
	}
	return nil
}

func cmdDist(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dist", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	exact := fs.Bool("exact", false, "use EXACTQUERY")
	eps := fs.Float64("eps", 0.2, "approximation parameter")
	dim := fs.Int("dim", 0, "sketch dimension override")
	hullCap := fs.Int("hullcap", 64, "max hull vertices (0 = certified)")
	seed := fs.Int64("seed", 1, "sketch seed")
	burr := fs.Bool("burr", false, "fit a Burr XII distribution")
	bins := fs.Int("bins", 0, "print a histogram with this many bins")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadLCC(*in)
	if err != nil {
		return err
	}
	var dist []float64
	if *exact {
		idx, err := resistecc.NewExactIndex(ctx, g)
		if err != nil {
			return err
		}
		dist = idx.Distribution()
	} else {
		idx, err := resistecc.NewFastIndex(ctx, g,
			resistecc.WithEpsilon(*eps), resistecc.WithDim(*dim),
			resistecc.WithSeed(*seed), resistecc.WithMaxHullVertices(*hullCap))
		if err != nil {
			return err
		}
		dist = idx.Distribution()
	}
	sum := resistecc.Summarize(dist)
	fmt.Printf("resistance radius   phi = %.6f\n", sum.Radius)
	fmt.Printf("resistance diameter R   = %.6f\n", sum.Diameter)
	fmt.Printf("mean                    = %.6f\n", sum.Mean)
	fmt.Printf("skewness                = %.4f\n", sum.Skewness)
	fmt.Printf("resistance center       = %v\n", sum.Center)
	if *burr {
		fit, err := resistecc.FitBurr(dist)
		if err != nil {
			return err
		}
		fmt.Printf("Burr fit: c=%.4f k=%.4f lambda=%.4f  loglik=%.1f KS=%.4f\n",
			fit.C, fit.K, fit.Lambda, fit.LogLik, fit.KS)
	}
	if *bins > 0 {
		lo, hi := sum.Radius, sum.Diameter
		if hi <= lo { // degenerate distribution: avoid a zero bin width
			hi = lo + 1
		}
		counts := make([]int, *bins)
		width := (hi - lo) / float64(*bins)
		for _, c := range dist {
			b := int((c - lo) / width)
			if b >= *bins {
				b = *bins - 1
			}
			if b < 0 {
				b = 0
			}
			counts[b]++
		}
		maxC := 1
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		for i, c := range counts {
			fmt.Printf("%9.4f |%s %d\n", lo+(float64(i)+0.5)*width, strings.Repeat("#", c*50/maxC), c)
		}
	}
	return nil
}

func cmdOptimize(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list")
	source := fs.Int("source", 0, "source node s")
	k := fs.Int("k", 10, "edge budget")
	algo := fs.String("algo", "minrecc", "greedy|far|cen|ch|minrecc|de|pk|path|rand")
	problem := fs.String("problem", "", "remd|rem (baselines only; heuristics imply theirs)")
	eps := fs.Float64("eps", 0.3, "approximation parameter")
	dim := fs.Int("dim", 128, "sketch dimension override")
	hullCap := fs.Int("hullcap", 32, "max hull vertices")
	seed := fs.Int64("seed", 1, "seed")
	traj := fs.Bool("traj", false, "print the exact c(s) trajectory (O(n^3))")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadLCC(*in)
	if err != nil {
		return err
	}
	if *source < 0 || *source >= g.N() {
		return fmt.Errorf("source %d out of range (n=%d)", *source, g.N())
	}
	opt := resistecc.OptimizeOptions{
		Sketch:        resistecc.SketchOptions{Epsilon: *eps, Dim: *dim, Seed: *seed},
		Hull:          resistecc.HullOptions{MaxVertices: *hullCap},
		MaxCandidates: 128,
	}
	prob := resistecc.REM
	if strings.EqualFold(*problem, "remd") {
		prob = resistecc.REMD
	}
	var plan *resistecc.Plan
	switch strings.ToLower(*algo) {
	case "greedy":
		plan, err = resistecc.GreedyExact(g, prob, *source, *k)
	case "far":
		plan, err = resistecc.FarMinRecc(ctx, g, *source, *k, opt)
	case "cen":
		plan, err = resistecc.CenMinRecc(ctx, g, *source, *k, opt)
	case "ch":
		plan, err = resistecc.ChMinRecc(ctx, g, *source, *k, opt)
	case "minrecc":
		plan, err = resistecc.MinRecc(ctx, g, *source, *k, opt)
	case "de":
		plan, err = resistecc.RunBaseline(g, resistecc.BaselineDegree, prob, *source, *k, *seed)
	case "pk":
		plan, err = resistecc.RunBaseline(g, resistecc.BaselinePageRank, prob, *source, *k, *seed)
	case "path":
		plan, err = resistecc.RunBaseline(g, resistecc.BaselinePath, prob, *source, *k, *seed)
	case "rand":
		plan, err = resistecc.RunBaseline(g, resistecc.BaselineRandom, prob, *source, *k, *seed)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	fmt.Printf("algorithm %s (%s), source %d, %d edges:\n", plan.Algorithm, plan.Problem, plan.Source, len(plan.Edges))
	for i, e := range plan.Edges {
		fmt.Printf("  %2d: (%d, %d)\n", i+1, e[0], e[1])
	}
	if *traj {
		tr, err := plan.ExactTrajectory(g)
		if err != nil {
			return err
		}
		fmt.Println("exact c(s) trajectory:")
		for i, c := range tr {
			fmt.Printf("  k=%2d  c(s)=%.6f\n", i, c)
		}
	}
	return nil
}
