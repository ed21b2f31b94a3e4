package hull

import (
	"bytes"
	"context"
	"math"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/graph"
	"resistecc/internal/sketch"
)

// servedInput is the point set and hull options of one perfbench workload:
// the sketch reccd builds from the workload's graph at its -eps, -dim and
// -seed 1, and the hull options ecc.HullOptionsFor derives from them
// (θ = ε/12, hull seed = sketch seed + 1) with the workload's -hullcap.
type servedInput struct {
	name    string
	graph   string
	eps     float64
	dim     int
	hullcap int
}

var servedInputs = []servedInput{
	{"build", "Unicode-language", 0.3, 64, 0},
	{"mixed", "Unicode-language", 0.2, 128, 64},
	{"serve", "Politician", 0.2, 128, 64},
}

// points loads the workload's graph the way reccd loads its -in file
// (written as an edge list, read back, cut to the largest component, so the
// node numbering matches the served index's) and sketches it.
func (in servedInput) points(tb testing.TB) [][]float64 {
	tb.Helper()
	info, err := dataset.Get(in.graph)
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
	sk, err := sketch.NewContext(context.Background(), lcc.ToCSR(), sketch.Options{Epsilon: in.eps, Dim: in.dim, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return sk.Points()
}

func (in servedInput) options() Options {
	return Options{Theta: in.eps / 12, Seed: 2, MaxVertices: in.hullcap}
}

// TestServedKnownAnswers pins APPROXCH's Result on the points each perfbench
// workload serves: perfbench's traced replay checks l and rounds against
// reccd's, so a kernel change that moved a bit here would show there too.
func TestServedKnownAnswers(t *testing.T) {
	want := map[string]struct {
		l, rounds int
		certified bool
		diamBits  uint64
		vhash     uint64
	}{
		"build": {605, 35, true, 0x40033a4324f5dc67, 0x0cc8b0b75e5d251b},
		"mixed": {64, 1, false, 0x4002a88cfab18aca, 0xea85b8c7592b5e77},
		"serve": {64, 1, false, 0x3fff63a029e18925, 0x7fe4c461eb654930},
	}
	for _, in := range servedInputs {
		t.Run(in.name, func(t *testing.T) {
			res, err := Approx(in.points(t), in.options())
			if err != nil {
				t.Fatal(err)
			}
			w := want[in.name]
			if len(res.Vertices) != w.l || res.Rounds != w.rounds || res.Certified != w.certified {
				t.Errorf("l=%d rounds=%d certified=%v, want l=%d rounds=%d certified=%v",
					len(res.Vertices), res.Rounds, res.Certified, w.l, w.rounds, w.certified)
			}
			if got := math.Float64bits(res.Diameter); got != w.diamBits {
				t.Errorf("diameter bits %#016x, want %#016x", got, w.diamBits)
			}
			if got := vertexHash(res.Vertices); got != w.vhash {
				t.Errorf("vertex hash %#016x, want %#016x", got, w.vhash)
			}
		})
	}
}
