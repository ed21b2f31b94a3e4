package sketch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"resistecc/internal/graph"
	"resistecc/internal/solver"
)

// nonEdge returns some missing edge of g (deterministically).
func nonEdge(t *testing.T, g *graph.Graph) (int, int) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	t.Fatal("graph is complete")
	return 0, 0
}

// mutation is one edge add or removal of an update sequence.
type mutation struct {
	add  bool
	u, v int
}

// apply runs m through the sketch's exact update on g, which the sketch
// reflects, and applies it to g.
func (m mutation) apply(t *testing.T, sk *Sketch, g *graph.Graph) (*Sketch, error) {
	t.Helper()
	var (
		next  *Sketch
		drift float64
		err   error
	)
	if m.add {
		next, drift, err = sk.AddEdgeUpdate(g.ToCSR(), m.u, m.v, solver.Options{})
	} else {
		next, drift, err = sk.RemoveEdgeUpdate(g.ToCSR(), m.u, m.v, solver.Options{})
	}
	if err != nil {
		return nil, err
	}
	if drift != 0 {
		t.Fatalf("%+v: drift %g, want 0 for an exact update", m, drift)
	}
	if m.add {
		err = g.AddEdge(m.u, m.v)
	} else {
		err = g.RemoveEdge(m.u, m.v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return next, nil
}

// mutateExactly applies steps mutations to sk and g: three adds of random
// non-edges, then a removal, in turn. The removals alternate between
// build-time edges and edges added earlier. A removal of an edge already
// gone, or one the update refuses because it would disconnect g, is
// skipped for another edge.
func mutateExactly(t *testing.T, sk *Sketch, g *graph.Graph, steps int, rng *rand.Rand) *Sketch {
	t.Helper()
	base := g.Edges()
	var added []graph.Edge
	for k := 0; k < steps; k++ {
		if k%4 != 3 {
			for {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u == v || g.HasEdge(u, v) {
					continue
				}
				next, err := mutation{true, u, v}.apply(t, sk, g)
				if err != nil {
					t.Fatalf("add (%d,%d): %v", u, v, err)
				}
				sk, added = next, append(added, graph.Edge{U: u, V: v})
				break
			}
			continue
		}
		pool := base
		if (k/4)%2 == 1 {
			pool = added
		}
		for tries := 0; ; tries++ {
			if tries > 1000 {
				t.Fatal("no removable edge found")
			}
			e := pool[rng.Intn(len(pool))]
			next, err := mutation{false, e.U, e.V}.apply(t, sk, g)
			if errors.Is(err, graph.ErrEdgeNotFound) || errors.Is(err, graph.ErrDisconnected) {
				continue
			}
			if err != nil {
				t.Fatalf("remove (%d,%d): %v", e.U, e.V, err)
			}
			sk = next
			break
		}
	}
	return sk
}

// hungCycle returns g with a path of k new nodes hung between its nodes a
// and b. The path closes a cycle through g, and each of its edges has a
// resistance close to 1: (k + R)/(k + 1 + R), R being r(a,b) in g.
func hungCycle(t *testing.T, g *graph.Graph, k, a, b int) *graph.Graph {
	t.Helper()
	h := graph.New(g.N() + k)
	for _, e := range g.Edges() {
		if err := h.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	prev := a
	for i := g.N(); i < g.N()+k; i++ {
		if err := h.AddEdge(prev, i); err != nil {
			t.Fatal(err)
		}
		prev = i
	}
	if err := h.AddEdge(prev, b); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestUpdatesAreExact: 40 exact updates — 30 adds of random non-edges and
// 10 removals, alternating build-time edges and earlier adds — leave the
// sketch of the final graph under the sketch's own updated projection, to
// within 1e-8 relative on every sketched resistance checked. Where a case
// names a first edge, it is removed before the random sequence, and its
// resistance is at least minR. On the Unicode-language proxy, as reccd
// numbers it, that is (30,281), whose resistance of 0.621 made the rank-1
// update it replaced push every answer outside ε. The near-bridge case
// removes an edge of a path of 60 nodes hung between two nodes of
// BA(150,3,4), whose resistance is 0.9837: a removal with that little left
// of 1 − r is exact too, since it solves on the graph it leaves. One
// dimension is not a multiple of 64.
func TestUpdatesAreExact(t *testing.T) {
	ba := graph.BarabasiAlbert(150, 3, 4)
	cases := []struct {
		name  string
		g     *graph.Graph
		first *graph.Edge
		minR  float64
	}{
		{"ba150", ba, nil, 0},
		{"unicode-language", servedGraph(t, "Unicode-language"), &graph.Edge{U: 30, V: 281}, 0},
		{"near-bridge", hungCycle(t, ba, 60, 0, 149), &graph.Edge{U: 150, V: 151}, 0.98},
	}
	for _, tc := range cases {
		for _, d := range []int{128, 100} {
			t.Run(fmt.Sprintf("%s/d=%d", tc.name, d), func(t *testing.T) {
				g := tc.g.Clone()
				sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.2, Dim: d, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				steps := 40
				if e := tc.first; e != nil {
					_, r, err := sk.updateSolve(g.ToCSR(), e.U, e.V, solver.Options{})
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("r%v = %.4f", *e, r)
					if r < tc.minR {
						t.Fatalf("r%v = %.4f, want at least %g", *e, r, tc.minR)
					}
					if sk, err = (mutation{false, e.U, e.V}).apply(t, sk, g); err != nil {
						t.Fatal(err)
					}
					steps--
				}
				sk = mutateExactly(t, sk, g, steps, rand.New(rand.NewSource(int64(d))))
				if sk.Updates != 40 || sk.proj.m != g.M() {
					t.Fatalf("updates %d, projection columns %d; want 40 and m = %d", sk.Updates, sk.proj.m, g.M())
				}
				ref, err := referenceOf(g.ToCSR(), sk)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(2))
				worst := 0.0
				for i := 0; i < 20000; i++ {
					a, b := rng.Intn(g.N()), rng.Intn(g.N())
					if a == b {
						continue
					}
					want := ref.Resistance(a, b)
					worst = max(worst, math.Abs(sk.Resistance(a, b)-want)/want)
				}
				t.Logf("worst relative deviation over 20000 pairs: %.3g", worst)
				if worst > 1e-8 {
					t.Fatalf("worst relative deviation from the reference sketch %.3g, want ≤ 1e-8", worst)
				}
			})
		}
	}
}

// TestAddedEdgeColumn: an added edge's column of Q is addedColumn's draw,
// at the edge's rank; removing the edge takes that column out, and adding
// it again puts the same column back, also for a build-time edge.
func TestAddedEdgeColumn(t *testing.T) {
	g := graph.BarabasiAlbert(60, 3, 8)
	const d = 100
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: d, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	u, v := nonEdge(t, g)
	built := g.Edges()[7]
	for _, m := range []mutation{{true, v, u}, {false, u, v}, {true, u, v}, {false, built.U, built.V}, {true, built.U, built.V}} {
		if sk, err = m.apply(t, sk, g); err != nil {
			t.Fatal(err)
		}
		a, b := min(m.u, m.v), max(m.u, m.v)
		e, has := edgeRank(g.ToCSR(), a, b)
		if has != m.add {
			t.Fatalf("%+v: edge present %v after the update", m, has)
		}
		if !m.add {
			continue
		}
		if got, want := sk.proj.column(e), addedColumn(5, a, b, d); !slices.Equal(got, want) {
			t.Fatalf("%+v: column %x, want %x", m, got, want)
		}
	}
}

// TestAddedColumnKnownAnswer pins the counter-based draw: SplitMix64's
// first output from state 0 is its published 0xE220A8397B1DCDAF, and the
// column of (30,281) under seed 1 is fixed word for word, with the bits
// past d cleared.
func TestAddedColumnKnownAnswer(t *testing.T) {
	if got := mix64(0x9E3779B97F4A7C15); got != 0xE220A8397B1DCDAF {
		t.Fatalf("mix64(γ) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	want := []uint64{0x170CC5682FFC5167, 0x7FF7CA945C084C9E}
	if got := addedColumn(1, 30, 281, 128); !slices.Equal(got, want) {
		t.Fatalf("addedColumn(1, 30, 281, 128) = %#x, want %#x", got, want)
	}
	if got := addedColumn(1, 30, 281, 100); got[0] != want[0] || got[1] != want[1]&(1<<36-1) {
		t.Fatalf("addedColumn(1, 30, 281, 100) = %#x, want %#x with bits from 100 on cleared", got, want)
	}
}

// TestProjectionColumnEdits: inserting and deleting a column at every rank
// of a projection whose rows span word boundaries matches a bit-by-bit
// reference, and deleting what was inserted gives back the original.
func TestProjectionColumnEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 63, 64, 65, 128, 130} {
		p := newProjection(3, m)
		for i := range p.bits {
			p.bits[i] = rng.Uint64()
		}
		for i := 0; i < p.d; i++ { // clear the bits past m
			if r := m & 63; r != 0 {
				p.row(i)[p.words-1] &= 1<<r - 1
			}
		}
		bit := func(p projection, i, e int) uint64 { return p.row(i)[e>>6] >> (e & 63) & 1 }
		for e := 0; e <= m; e++ {
			col := []uint64{uint64(rng.Intn(8))}
			ins := p.withColumn(e, col)
			for i := 0; i < p.d; i++ {
				for k := 0; k <= m; k++ {
					want := col[0] >> i & 1
					if k < e {
						want = bit(p, i, k)
					} else if k > e {
						want = bit(p, i, k-1)
					}
					if bit(ins, i, k) != want {
						t.Fatalf("m=%d insert at %d: row %d bit %d = %d, want %d", m, e, i, k, bit(ins, i, k), want)
					}
				}
			}
			if got := ins.column(e); !slices.Equal(got, col) {
				t.Fatalf("m=%d: inserted column %x reads back as %x", m, col, got)
			}
			if back := ins.withoutColumn(e); !slices.Equal(back.bits, p.bits) || back.m != m {
				t.Fatalf("m=%d: deleting the column inserted at %d does not give the original back", m, e)
			}
		}
	}
}

// TestEdgeRank: an edge's rank is its index in g.Edges(), the canonical
// (u<v, sorted) order, and a non-edge's is where it would be inserted.
func TestEdgeRank(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, 6)
	csr := g.ToCSR()
	edges := g.Edges()
	for i, e := range edges {
		if r, has := edgeRank(csr, e.U, e.V); r != i || !has {
			t.Fatalf("edge %v: rank %d present %v, want %d true", e, r, has, i)
		}
	}
	u, v := nonEdge(t, g)
	want := sort.Search(len(edges), func(i int) bool {
		return edges[i].U > u || edges[i].U == u && edges[i].V > v
	})
	if r, has := edgeRank(csr, u, v); r != want || has {
		t.Fatalf("non-edge (%d,%d): rank %d present %v, want %d false", u, v, r, has, want)
	}
}

// TestRemoveEdgeUpdateRefusesBridges: every path edge is a bridge, so the
// update refuses its removal with graph.ErrDisconnected: the graph it
// would leave has no sketch.
func TestRemoveEdgeUpdateRefusesBridges(t *testing.T) {
	g := graph.Path(16)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sk.RemoveEdgeUpdate(g.ToCSR(), 7, 8, solver.Options{}); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("bridge removal: got %v, want graph.ErrDisconnected", err)
	}
}

// TestUpdateValidation: range and self-loop errors surface as sentinels.
func TestUpdateValidation(t *testing.T) {
	g := graph.Path(8)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sk.AddEdgeUpdate(g.ToCSR(), 0, 99, solver.Options{}); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("out of range: got %v", err)
	}
	if _, _, err := sk.AddEdgeUpdate(g.ToCSR(), 3, 3, solver.Options{}); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop: got %v", err)
	}
	if _, _, err := sk.AddEdgeUpdate(g.ToCSR(), 4, 3, solver.Options{}); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("present edge added: got %v", err)
	}
	if _, _, err := sk.RemoveEdgeUpdate(g.ToCSR(), 0, 2, solver.Options{}); !errors.Is(err, graph.ErrEdgeNotFound) {
		t.Fatalf("missing edge removed: got %v", err)
	}
	// A graph with another edge count is not the one the projection's
	// columns describe.
	other := g.Clone()
	if err := other.AddEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sk.AddEdgeUpdate(other.ToCSR(), 0, 4, solver.Options{}); err == nil || !strings.Contains(err.Error(), "projection has 7") {
		t.Fatalf("update on a graph of 8 edges: got %v, want the projection's edge count named", err)
	}
}

// TestNewContextCancelled: a cancelled context aborts the build before its
// first block and returns no sketch.
func TestNewContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sk, err := NewContext(ctx, graph.Path(64).ToCSR(), Options{Epsilon: 0.3, Dim: 256, Seed: 1})
	if sk != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: sketch %v, error %v; want no sketch and context.Canceled", sk != nil, err)
	}
}
