package graph

import (
	"math"
	"testing"
)

func TestLocalClustering(t *testing.T) {
	g := Complete(4)
	for u := 0; u < 4; u++ {
		if c := g.LocalClustering(u); c != 1 {
			t.Fatalf("K4 clustering(%d)=%g, want 1", u, c)
		}
	}
	s := Star(5)
	if c := s.LocalClustering(0); c != 0 {
		t.Fatalf("star hub clustering %g, want 0", c)
	}
	if c := s.LocalClustering(1); c != 0 {
		t.Fatalf("degree-1 node clustering %g, want 0", c)
	}
	// Triangle with a pendant: node 0 in triangle {0,1,2} plus pendant 3.
	tr := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {0, 2}, {0, 3}})
	// Node 0 has neighbours {1,2,3}; only (1,2) adjacent: C = 2*1/(3*2) = 1/3.
	if c := tr.LocalClustering(0); math.Abs(c-1.0/3) > 1e-15 {
		t.Fatalf("clustering %g, want 1/3", c)
	}
}

func TestMeanClustering(t *testing.T) {
	if c := Complete(5).MeanClustering(); c != 1 {
		t.Fatalf("K5 mean clustering %g", c)
	}
	if c := Path(10).MeanClustering(); c != 0 {
		t.Fatalf("path mean clustering %g", c)
	}
}

func TestPowerLawExponentOnBA(t *testing.T) {
	g := BarabasiAlbert(3000, 3, 17)
	gamma := g.PowerLawExponent()
	// BA's theoretical exponent is 3; the MLE with a heuristic cutoff should
	// land broadly in the scale-free band the paper reports (2 ≤ γ ≤ 4).
	if gamma < 1.8 || gamma > 4.5 {
		t.Fatalf("BA power-law exponent %.2f outside plausible band", gamma)
	}
}

func TestSummarize(t *testing.T) {
	g := Star(5)
	s := g.Summarize()
	if s.N != 5 || s.M != 4 || s.MaxDegree != 4 || s.MinDegree != 1 {
		t.Fatalf("stats %+v", s)
	}
	if math.Abs(s.AvgDegree-8.0/5) > 1e-15 {
		t.Fatalf("avg degree %g", s.AvgDegree)
	}
	fast := g.SummarizeFast()
	if fast.Clustering != 0 {
		t.Fatal("SummarizeFast should not compute clustering")
	}
	empty := New(0).Summarize()
	if empty.N != 0 {
		t.Fatal("empty stats")
	}
}
