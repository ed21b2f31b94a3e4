package resistecc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

func TestPublicGraphBasics(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 || !g.Connected() {
		t.Fatalf("shape n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(1); d != 2 {
		t.Fatalf("degree %d", d)
	}
	nbrs := g.Neighbors(1)
	if len(nbrs) != 2 || nbrs[0] != 0 || nbrs[1] != 2 {
		t.Fatalf("neighbors %v", nbrs)
	}
	edges := g.Edges()
	if len(edges) != 3 || edges[0] != [2]int{0, 1} {
		t.Fatalf("edges %v", edges)
	}
	c := g.Clone()
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("clone aliased")
	}
	if _, err := FromEdges(2, [][2]int{{0, 0}}); err == nil {
		t.Fatal("self-loop must fail")
	}
	hops := g.HopDistance(0)
	if hops[3] != 3 {
		t.Fatalf("hops %v", hops)
	}
}

func TestPublicGenerators(t *testing.T) {
	if g := PathGraph(5); g.N() != 5 || g.M() != 4 {
		t.Fatal("path")
	}
	if g := CycleGraph(5); g.M() != 5 {
		t.Fatal("cycle")
	}
	if g := StarGraph(5); g.Degree(0) != 4 {
		t.Fatal("star")
	}
	if g := CompleteGraph(5); g.M() != 10 {
		t.Fatal("complete")
	}
	if g := GridGraph(2, 3); g.N() != 6 {
		t.Fatal("grid")
	}
	if g := LollipopGraph(4, 2); g.N() != 6 {
		t.Fatal("lollipop")
	}
	if g := BarbellGraph(3, 1); g.N() != 7 {
		t.Fatal("barbell")
	}
	ba, err := BarabasiAlbert(100, 2, 1)
	if err != nil || !ba.Connected() {
		t.Fatalf("BA err %v", err)
	}
	if _, err := BarabasiAlbert(2, 5, 1); err == nil {
		t.Fatal("invalid BA params must error, not panic")
	}
	pc, err := PowerlawCluster(100, 2, 0.4, 1)
	if err != nil || pc.N() != 100 {
		t.Fatal("powerlaw cluster")
	}
	ws, err := WattsStrogatz(100, 4, 0.05, 1)
	if err != nil || !ws.Connected() {
		t.Fatal("WS")
	}
	er, err := ErdosRenyi(100, 0.05, 1)
	if err != nil || !er.Connected() {
		t.Fatal("ER")
	}
	rc, err := RandomConnected(30, 60, 1)
	if err != nil || rc.M() != 60 {
		t.Fatal("random connected")
	}
	if _, err := RandomConnected(5, 1, 1); err == nil {
		t.Fatal("invalid RC params must error")
	}
}

func TestPublicLCCAndStats(t *testing.T) {
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	lcc, mapping := g.LargestComponent()
	if lcc.N() != 3 || len(mapping) != 3 {
		t.Fatalf("lcc %d, map %v", lcc.N(), mapping)
	}
	st := lcc.Stats()
	if st.N != 3 || st.M != 2 || st.MaxDegree != 2 {
		t.Fatalf("stats %+v", st)
	}
	if fast := lcc.StatsFast(); fast.Clustering != 0 {
		t.Fatal("StatsFast clustering")
	}
}

func TestPublicEdgeListIO(t *testing.T) {
	g := CycleGraph(6)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, labels, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 6 || h.M() != 6 || len(labels) != 6 {
		t.Fatal("round trip")
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := filepathCreate(path, g)
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	l, _, err := LoadEdgeList(path)
	if err != nil || l.M() != 6 {
		t.Fatalf("load err %v", err)
	}
}

// filepathCreate saves the graph via the internal writer for the load test.
func filepathCreate(path string, g *Graph) (struct{}, error) {
	return struct{}{}, g.inner().SaveEdgeList(path)
}

func TestExactIndexPublic(t *testing.T) {
	g := StarGraph(8)
	idx, err := NewExactIndex(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if r := idx.Resistance(1, 2); math.Abs(r-2) > 1e-9 {
		t.Fatalf("leaf-leaf r=%g", r)
	}
	v := idx.Eccentricity(0)
	if math.Abs(v.Value-1) > 1e-9 || v.Node != 0 {
		t.Fatalf("hub ecc %+v", v)
	}
	vals, err := idx.Query([]int{0, 1})
	if err != nil || len(vals) != 2 {
		t.Fatalf("batch: %v %v", vals, err)
	}
	if _, err := idx.Query([]int{0, 99}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out-of-range batch: %v", err)
	}
	dist := idx.Distribution()
	sum := Summarize(dist)
	if math.Abs(sum.Radius-1) > 1e-9 || math.Abs(sum.Diameter-2) > 1e-9 {
		t.Fatalf("summary %+v", sum)
	}
	if len(sum.Center) != 1 || sum.Center[0] != 0 {
		t.Fatalf("center %v", sum.Center)
	}
	// Disconnected rejected.
	d := NewGraph(3)
	if _, err := NewExactIndex(context.Background(), d); err == nil {
		t.Fatal("disconnected must fail")
	}
}

func TestApproxAndFastIndexPublic(t *testing.T) {
	g, err := BarabasiAlbert(150, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExactIndex(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithEpsilon(0.3), WithDim(256), WithSeed(5)}
	ap, err := NewApproxIndex(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ap.SketchDim() != 256 {
		t.Fatalf("dim %d", ap.SketchDim())
	}
	fast, err := NewFastIndex(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if fast.SketchDim() != 256 || fast.BoundarySize() == 0 {
		t.Fatal("fast index metadata")
	}
	if b := fast.Boundary(); len(b) != fast.BoundarySize() {
		t.Fatal("boundary copy")
	}
	exD := exact.Distribution()
	for _, v := range []int{0, 33, 149} {
		a := ap.Eccentricity(v).Value
		f := fast.Eccentricity(v).Value
		e := exD[v]
		if math.Abs(a-e)/e > 0.35 || math.Abs(f-e)/e > 0.35 {
			t.Fatalf("node %d: exact %g approx %g fast %g", v, e, a, f)
		}
	}
	sigma, err := RelativeError(fast.Distribution(), exD)
	if err != nil {
		t.Fatal(err)
	}
	if sigma > 0.2 {
		t.Fatalf("fast sigma %g", sigma)
	}
	// The hull-pair diameter is close to the distribution maximum.
	diam, pair, err := fast.ResistanceDiameter()
	if err != nil {
		t.Fatal(err)
	}
	if dmax := Summarize(fast.Distribution()).Diameter; diam < 0.7*dmax || diam > 1.3*dmax {
		t.Fatalf("hull diameter %g vs distribution max %g (pair %v)", diam, dmax, pair)
	}
	if rr := ap.Resistance(0, 1); rr <= 0 {
		t.Fatal("sketched resistance")
	}
	if rr := fast.Resistance(0, 1); rr <= 0 {
		t.Fatal("fast sketched resistance")
	}
	if got, err := ap.Query([]int{1, 2}); err != nil || len(got) != 2 {
		t.Fatalf("approx batch: %v %v", got, err)
	}
	if got, err := fast.Query([]int{1, 2}); err != nil || len(got) != 2 {
		t.Fatalf("fast batch: %v %v", got, err)
	}
	if len(ap.Distribution()) != g.N() {
		t.Fatal("approx distribution")
	}
	if TheoreticalSketchDim(1000, 0.3) <= 0 {
		t.Fatal("theoretical dim")
	}
	if _, err := NewFastIndex(context.Background(), g); err == nil {
		t.Fatal("missing epsilon must fail")
	}
}

func TestOptimizePublic(t *testing.T) {
	g := PathGraph(8)
	s := 0
	plan, err := GreedyExact(g, REMD, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Problem != REMD || plan.Source != s || len(plan.Edges) != 2 {
		t.Fatalf("plan %+v", plan)
	}
	traj, err := plan.ExactTrajectory(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 3 || traj[2] >= traj[0] {
		t.Fatalf("trajectory %v", traj)
	}
	h, err := plan.Apply(g, -1)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M()+2 {
		t.Fatal("apply count")
	}
	optPlan, optVal, err := Exhaustive(g, REMD, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(optPlan.Edges) != 1 || optVal <= 0 {
		t.Fatalf("exhaustive %v %g", optPlan.Edges, optVal)
	}
	// Greedy k=1 equals OPT k=1.
	g1, err := GreedyExact(g, REMD, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := g1.ExactTrajectory(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1[1]-optVal) > 1e-9 {
		t.Fatalf("greedy k=1 %g vs OPT %g", t1[1], optVal)
	}

	opt := OptimizeOptions{Sketch: SketchOptions{Epsilon: 0.3, Dim: 96, Seed: 2}, Hull: HullOptions{MaxVertices: 10}}
	for name, run := range map[string]func(context.Context, *Graph, int, int, OptimizeOptions) (*Plan, error){
		"FarMinRecc": FarMinRecc,
		"CenMinRecc": CenMinRecc,
		"ChMinRecc":  ChMinRecc,
		"MinRecc":    MinRecc,
	} {
		p, err := run(context.Background(), g, s, 2, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := p.ExactTrajectory(g)
		if err != nil {
			t.Fatalf("%s trajectory: %v", name, err)
		}
		if tr[len(tr)-1] >= tr[0] {
			t.Fatalf("%s made no progress: %v", name, tr)
		}
	}
}

func TestBaselinesPublic(t *testing.T) {
	g, err := BarabasiAlbert(60, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Baseline{BaselineDegree, BaselinePageRank, BaselinePath, BaselineRandom} {
		for _, p := range []Problem{REMD, REM} {
			plan, err := RunBaseline(g, b, p, 5, 2, 7)
			if err != nil {
				t.Fatalf("%v/%v: %v", b, p, err)
			}
			if len(plan.Edges) != 2 {
				t.Fatalf("%v/%v edges %v", b, p, plan.Edges)
			}
		}
		if b.String() == "" {
			t.Fatal("baseline stringer")
		}
	}
	if _, err := RunBaseline(g, Baseline(99), REMD, 0, 1, 1); err == nil {
		t.Fatal("unknown baseline")
	}
	if REMD.String() != "REMD" || REM.String() != "REM" {
		t.Fatal("problem stringer")
	}
}

func TestFitBurrPublic(t *testing.T) {
	g, err := PowerlawCluster(400, 3, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewExactIndex(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	dist := idx.Distribution()
	fit, err := FitBurr(dist)
	if err != nil {
		t.Fatal(err)
	}
	if fit.C <= 0 || fit.K <= 0 || fit.Lambda <= 0 {
		t.Fatalf("fit %+v", fit)
	}
	if fit.KS > 0.35 {
		t.Fatalf("KS %g", fit.KS)
	}
	med := Summarize(dist).Mean
	if fit.PDF(med) <= 0 {
		t.Fatalf("pdf at data mean %g is %g (fit %+v)", med, fit.PDF(med), fit)
	}
	if c := fit.CDF(med * 100); c < 0.9 {
		t.Fatalf("cdf tail %g", c)
	}
	if _, err := FitBurr([]float64{1}); err == nil {
		t.Fatal("too few samples")
	}
}

func TestDistributionParallelPublic(t *testing.T) {
	g, err := BarabasiAlbert(150, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := NewFastIndex(context.Background(), g, WithEpsilon(0.3), WithDim(64), WithSeed(8), WithMaxHullVertices(16))
	if err != nil {
		t.Fatal(err)
	}
	serial := fi.Distribution()
	par := fi.DistributionParallel(4)
	for v := range serial {
		if serial[v] != par[v] {
			t.Fatalf("node %d: %g vs %g", v, serial[v], par[v])
		}
	}
}
