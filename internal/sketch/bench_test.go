package sketch

import (
	"bytes"
	"context"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/graph"
	"resistecc/internal/solver"
)

var benchSketch *Sketch

// servedCSR loads a dataset proxy the way reccd loads its -in file: written
// as an edge list, read back, cut to the largest component. The node
// numbering, and so every solve, then matches the served index's.
func servedCSR(tb testing.TB, name string) *graph.CSR {
	return servedGraph(tb, name).ToCSR()
}

func servedGraph(tb testing.TB, name string) *graph.Graph {
	tb.Helper()
	info, err := dataset.Get(name)
	if err != nil {
		tb.Fatal(err)
	}
	proxy, err := info.Proxy(1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proxy.WriteEdgeList(&buf); err != nil {
		tb.Fatal(err)
	}
	g, _, err := graph.ReadEdgeList(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	lcc, _ := g.LargestComponent()
	return lcc
}

// BenchmarkSketchBuild times APPROXER alone at reccd's defaults (ε 0.2,
// d 128, seed 1) on the graphs of two perfbench workloads: serve's
// Politician proxy (n = 5908) and mixed's Unicode-language proxy (n = 614).
// iters/op is the build's total CG iterations, which reccd reports as
// solver iterations in /v1/healthz.
func BenchmarkSketchBuild(b *testing.B) {
	for _, bc := range []struct{ name, graph string }{
		{"serve", "Politician"},
		{"mixed", "Unicode-language"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			csr := servedCSR(b, bc.graph)
			opt := Options{Epsilon: 0.2, Dim: 128, Seed: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk, err := NewContext(context.Background(), csr, opt)
				if err != nil {
					b.Fatal(err)
				}
				benchSketch = sk
			}
			b.ReportMetric(float64(benchSketch.Stats.TotalIters), "iters/op")
		})
	}
}

// BenchmarkSketchUpdate times the mutation layer alone at reccd's defaults
// on the same two graphs: one op is an AddEdgeUpdate of a non-edge plus a
// RemoveEdgeUpdate of a build-time edge, each applied to the built sketch.
// Each is one Laplacian solve, one O(n·d) embedding pass and a copy of the
// projection.
func BenchmarkSketchUpdate(b *testing.B) {
	for _, bc := range []struct{ name, graph string }{
		{"serve", "Politician"},
		{"mixed", "Unicode-language"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			g := servedGraph(b, bc.graph)
			csr := g.ToCSR()
			sk, err := NewContext(context.Background(), csr, Options{Epsilon: 0.2, Dim: 128, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			add, rm := updatePair(b, g)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchSketch, _, err = sk.AddEdgeUpdate(csr, add.U, add.V, solver.Options{}); err != nil {
					b.Fatal(err)
				}
				if benchSketch, _, err = sk.RemoveEdgeUpdate(csr, rm.U, rm.V, solver.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// updatePair picks BenchmarkSketchUpdate's edges: the first non-edge of the
// highest-numbered node, and the first edge of node 0 whose removal keeps g
// connected.
func updatePair(b *testing.B, g *graph.Graph) (add, rm graph.Edge) {
	last := g.N() - 1
	for u := 0; u < last && add == (graph.Edge{}); u++ {
		if !g.HasEdge(u, last) {
			add = graph.Edge{U: u, V: last}
		}
	}
	for _, v := range g.Neighbors(0) {
		h := g.Clone()
		if err := h.RemoveEdge(0, int(v)); err == nil && h.Connected() {
			return add, graph.Edge{U: 0, V: int(v)}
		}
	}
	b.Fatal("node 0 has only bridges")
	return
}
