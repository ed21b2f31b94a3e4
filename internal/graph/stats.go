package graph

import (
	"math"
	"sort"
)

// Stats summarizes the structural statistics reported in Table I of the
// paper for each dataset's largest connected component.
type Stats struct {
	N             int     // number of nodes
	M             int     // number of edges
	AvgDegree     float64 // d_avg = 2m/n
	MaxDegree     int
	MinDegree     int
	PowerLawGamma float64 // MLE exponent of the degree tail (Clauset et al.)
	Clustering    float64 // mean local clustering coefficient
}

// Summarize computes Stats for g. Clustering is exact (may cost
// O(Σ deg²) time); for huge graphs use SummarizeFast.
func (g *Graph) Summarize() Stats {
	s := g.SummarizeFast()
	s.Clustering = g.MeanClustering()
	return s
}

// SummarizeFast computes all Stats fields except Clustering (left zero).
func (g *Graph) SummarizeFast() Stats {
	s := Stats{N: g.N(), M: g.M(), AvgDegree: g.AverageDegree()}
	if s.N == 0 {
		return s
	}
	s.MinDegree = math.MaxInt
	for u := range g.adj {
		d := len(g.adj[u])
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d < s.MinDegree {
			s.MinDegree = d
		}
	}
	s.PowerLawGamma = g.PowerLawExponent()
	return s
}

// PowerLawExponent estimates the degree-distribution exponent γ with the
// discrete maximum-likelihood estimator of Clauset, Shalizi & Newman:
//
//	γ ≈ 1 + n_tail / Σ_{d_i >= dmin} ln(d_i / (dmin − 1/2)),
//
// where dmin is chosen as the mode-excluding lower cutoff (here: the median
// degree, clamped to >= 2), a cheap heuristic adequate for the Table I
// reporting column.
func (g *Graph) PowerLawExponent() float64 {
	degs := g.Degrees()
	if len(degs) == 0 {
		return 0
	}
	sorted := append([]int(nil), degs...)
	sort.Ints(sorted)
	dmin := sorted[len(sorted)/2]
	if dmin < 2 {
		dmin = 2
	}
	sum := 0.0
	count := 0
	for _, d := range degs {
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			count++
		}
	}
	if count == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(count)/sum
}

// LocalClustering returns the local clustering coefficient of node u: the
// fraction of pairs of u's neighbours that are themselves adjacent.
// Nodes of degree < 2 have coefficient 0.
func (g *Graph) LocalClustering(u int) float64 {
	nbrs := g.adj[u]
	d := len(nbrs)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(int(nbrs[i]), int(nbrs[j])) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// MeanClustering returns the average local clustering coefficient.
func (g *Graph) MeanClustering() float64 {
	if g.N() == 0 {
		return 0
	}
	sum := 0.0
	for u := range g.adj {
		sum += g.LocalClustering(u)
	}
	return sum / float64(g.N())
}
