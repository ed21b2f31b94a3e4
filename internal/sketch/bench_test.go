package sketch

import (
	"bytes"
	"context"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/graph"
)

var benchSketch *Sketch

// servedCSR loads a dataset proxy the way reccd loads its -in file: written
// as an edge list, read back, cut to the largest component. The node
// numbering, and so every solve, then matches the served index's.
func servedCSR(b *testing.B, name string) *graph.CSR {
	b.Helper()
	info, err := dataset.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	proxy, err := info.Proxy(1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proxy.WriteEdgeList(&buf); err != nil {
		b.Fatal(err)
	}
	g, _, err := graph.ReadEdgeList(&buf)
	if err != nil {
		b.Fatal(err)
	}
	lcc, _ := g.LargestComponent()
	return lcc.ToCSR()
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
