package graph

// CSR is an immutable compressed-sparse-row snapshot of a graph, used by the
// numerical kernels (Laplacian matvec, solvers, sketching) where pointer-free
// sequential memory access matters. Row u's neighbours are
// Col[Ptr[u]:Ptr[u+1]].
type CSR struct {
	Ptr []int32 // length n+1
	Col []int32 // length 2m
	N   int
	M   int
}

// ToCSR snapshots the graph's current adjacency structure.
func (g *Graph) ToCSR() *CSR {
	n := len(g.adj)
	c := &CSR{
		Ptr: make([]int32, n+1),
		Col: make([]int32, 0, 2*g.m),
		N:   n,
		M:   g.m,
	}
	for u := 0; u < n; u++ {
		c.Col = append(c.Col, g.adj[u]...)
		c.Ptr[u+1] = int32(len(c.Col))
	}
	return c
}

// Degree returns the degree of node u in the snapshot.
func (c *CSR) Degree(u int) int { return int(c.Ptr[u+1] - c.Ptr[u]) }

// Neighbors returns the neighbour slice of u (shared storage; do not modify).
func (c *CSR) Neighbors(u int) []int32 { return c.Col[c.Ptr[u]:c.Ptr[u+1]] }

// LapMul computes y = L·x where L = D − A is the graph Laplacian.
// len(x) and len(y) must equal N; y is fully overwritten.
func (c *CSR) LapMul(x, y []float64) {
	for u := 0; u < c.N; u++ {
		s := 0.0
		row := c.Col[c.Ptr[u]:c.Ptr[u+1]]
		for _, v := range row {
			s += x[v]
		}
		y[u] = float64(len(row))*x[u] - s
	}
}

// AdjMul computes y = A·x where A is the adjacency matrix.
func (c *CSR) AdjMul(x, y []float64) {
	for u := 0; u < c.N; u++ {
		s := 0.0
		for _, v := range c.Col[c.Ptr[u]:c.Ptr[u+1]] {
			s += x[v]
		}
		y[u] = s
	}
}
