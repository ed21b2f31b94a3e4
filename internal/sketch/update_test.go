package sketch

import (
	"context"
	"errors"
	"math"
	"testing"

	"resistecc/internal/graph"
	"resistecc/internal/linalg"
	"resistecc/internal/solver"
)

// maxRelErr returns the worst relative deviation of the sketched resistance
// from the exact one over all node pairs.
func maxRelErr(t *testing.T, sk *Sketch, lp *linalg.Dense) float64 {
	t.Helper()
	worst := 0.0
	for u := 0; u < sk.N; u++ {
		for v := u + 1; v < sk.N; v++ {
			exact := linalg.Resistance(lp, u, v)
			if exact <= 0 {
				t.Fatalf("exact resistance (%d,%d) = %g", u, v, exact)
			}
			if e := math.Abs(sk.Resistance(u, v)-exact) / exact; e > worst {
				worst = e
			}
		}
	}
	return worst
}

func pinv(t *testing.T, g *graph.Graph) *linalg.Dense {
	t.Helper()
	lp, err := linalg.Pseudoinverse(g)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

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

// TestAddEdgeUpdateWithinDriftBound is the documented accuracy property of
// the Sherman–Morrison embedding update: after one AddEdge, the incremental
// sketch's resistances deviate from the *exact* new-graph resistances by at
// most ε_emp·(1+c) + c, where ε_emp is the old sketch's own worst empirical
// JL error and c is the drift contribution reported by the update. It also
// cross-checks against a fresh rebuild within the combined bound.
func TestAddEdgeUpdateWithinDriftBound(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path30", graph.Path(30)},
		{"star30", graph.Star(30)},
		{"ba60", graph.BarabasiAlbert(60, 3, 11)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			u, v := nonEdge(t, g)
			opt := Options{Epsilon: 0.3, Dim: 512, Seed: 7}
			sk, err := NewContext(context.Background(), g.ToCSR(), opt)
			if err != nil {
				t.Fatal(err)
			}
			oldErr := maxRelErr(t, sk, pinv(t, g))

			upd, contrib, err := sk.AddEdgeUpdate(g.ToCSR(), u, v, solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if contrib <= 0 || contrib >= 1 {
				t.Fatalf("drift contribution %g outside (0,1)", contrib)
			}
			if upd.Drift != contrib || upd.Updates != 1 {
				t.Fatalf("accounting: Drift=%g Updates=%d, want %g, 1", upd.Drift, upd.Updates, contrib)
			}
			if sk.Drift != 0 || sk.Updates != 0 {
				t.Fatal("receiver sketch was mutated")
			}

			g2 := g.Clone()
			if err := g2.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			lp2 := pinv(t, g2)
			updErr := maxRelErr(t, upd, lp2)
			bound := oldErr*(1+contrib) + contrib + 1e-6
			if updErr > bound {
				t.Fatalf("incremental error %.4f exceeds drift bound %.4f (oldErr=%.4f contrib=%.4f)",
					updErr, bound, oldErr, contrib)
			}

			// Cross-check against a fresh rebuild: both approximate the same
			// exact values, so they agree within the sum of their bounds.
			fresh, err := NewContext(context.Background(), g2.ToCSR(), opt)
			if err != nil {
				t.Fatal(err)
			}
			freshErr := maxRelErr(t, fresh, lp2)
			for a := 0; a < g2.N(); a++ {
				for b := a + 1; b < g2.N(); b++ {
					exact := linalg.Resistance(lp2, a, b)
					if d := math.Abs(upd.Resistance(a, b) - fresh.Resistance(a, b)); d > (bound+freshErr)*exact+1e-9 {
						t.Fatalf("incremental vs rebuild at (%d,%d): |%g - %g| > %g", a, b,
							upd.Resistance(a, b), fresh.Resistance(a, b), (bound+freshErr)*exact)
					}
				}
			}
		})
	}
}

// TestRemoveEdgeUpdateWithinDriftBound checks the downdate on a non-bridge
// edge of K8 (every edge there has resistance 2/8, far from the bridge
// degeneracy).
func TestRemoveEdgeUpdateWithinDriftBound(t *testing.T) {
	g := graph.Complete(8)
	opt := Options{Epsilon: 0.3, Dim: 512, Seed: 9}
	sk, err := NewContext(context.Background(), g.ToCSR(), opt)
	if err != nil {
		t.Fatal(err)
	}
	oldErr := maxRelErr(t, sk, pinv(t, g))

	upd, contrib, err := sk.RemoveEdgeUpdate(g.ToCSR(), 0, 1, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	if err := g2.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	lp2 := pinv(t, g2)
	updErr := maxRelErr(t, upd, lp2)
	bound := oldErr*(1+contrib) + contrib + 1e-6
	if updErr > bound {
		t.Fatalf("incremental removal error %.4f exceeds bound %.4f (oldErr=%.4f contrib=%.4f)",
			updErr, bound, oldErr, contrib)
	}
}

// TestRemoveEdgeUpdateRefusesBridges: every path edge is a bridge (r = 1),
// so the downdate must refuse with ErrUnsafeUpdate rather than divide by ~0.
func TestRemoveEdgeUpdateRefusesBridges(t *testing.T) {
	g := graph.Path(16)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sk.RemoveEdgeUpdate(g.ToCSR(), 7, 8, solver.Options{}); !errors.Is(err, ErrUnsafeUpdate) {
		t.Fatalf("bridge removal: got %v, want ErrUnsafeUpdate", err)
	}
}

// TestDriftAccumulates: consecutive updates sum their contributions.
func TestDriftAccumulates(t *testing.T) {
	g := graph.Cycle(12)
	sk, err := NewContext(context.Background(), g.ToCSR(), Options{Epsilon: 0.3, Dim: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s1, c1, err := sk.AddEdgeUpdate(g.ToCSR(), 0, 6, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g1 := g.Clone()
	if err := g1.AddEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	s2, c2, err := s1.AddEdgeUpdate(g1.ToCSR(), 3, 9, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := c1 + c2; math.Abs(s2.Drift-want) > 1e-12 || s2.Updates != 2 {
		t.Fatalf("Drift=%g Updates=%d, want %g, 2", s2.Drift, s2.Updates, want)
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
