package resistecc

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"resistecc/internal/stats"
)

// TestIntegrationPipeline exercises the full user journey end to end:
// generate → persist → reload → LCC → exact index → fast index → optimize →
// re-query, with cross-validation of every stage against the exact oracle.
func TestIntegrationPipeline(t *testing.T) {
	// 1. Generate a realistic scale-free network with pendant periphery.
	g, err := ScaleFreeMixed(600, 1, 5, 0.4, 42)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist and reload through the edge-list format.
	path := filepath.Join(t.TempDir(), "net.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := loaded.LargestComponent()
	if lcc.N() != g.N() || lcc.M() != g.M() {
		t.Fatalf("round trip changed the graph: %d/%d vs %d/%d", lcc.N(), lcc.M(), g.N(), g.M())
	}

	// 3. Exact ground truth.
	exact, err := NewExactIndex(context.Background(), lcc)
	if err != nil {
		t.Fatal(err)
	}
	exD := exact.Distribution()
	exSum := Summarize(exD)
	if exSum.Radius <= 0 || exSum.Diameter <= exSum.Radius {
		t.Fatalf("summary %+v", exSum)
	}

	// 4. FASTQUERY agrees within the sketch tolerance.
	fast, err := NewFastIndex(context.Background(), lcc, WithEpsilon(0.3), WithDim(192), WithSeed(42), WithMaxHullVertices(48))
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := RelativeError(fast.Distribution(), exD)
	if err != nil {
		t.Fatal(err)
	}
	if sigma > 0.15 {
		t.Fatalf("pipeline sigma %.3f", sigma)
	}

	// 5. Pick the worst node and improve it with MinRecc; verify the exact
	// trajectory drops and the final value is re-confirmed by a fresh index.
	s := 0
	for v, c := range exD {
		if c > exD[s] {
			s = v
		}
	}
	plan, err := MinRecc(context.Background(), lcc, s, 4, OptimizeOptions{
		Sketch:        SketchOptions{Epsilon: 0.3, Dim: 96, Seed: 42},
		Hull:          HullOptions{MaxVertices: 16},
		MaxCandidates: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	traj, err := plan.ExactTrajectory(lcc)
	if err != nil {
		t.Fatal(err)
	}
	if traj[len(traj)-1] >= traj[0]*0.9 {
		t.Fatalf("MinRecc improved c(s) only from %g to %g", traj[0], traj[len(traj)-1])
	}
	augmented, err := plan.Apply(lcc, -1)
	if err != nil {
		t.Fatal(err)
	}
	reIdx, err := NewExactIndex(context.Background(), augmented)
	if err != nil {
		t.Fatal(err)
	}
	if got := reIdx.Eccentricity(s).Value; math.Abs(got-traj[len(traj)-1]) > 1e-8 {
		t.Fatalf("trajectory end %g vs recomputed %g", traj[len(traj)-1], got)
	}

	// 6. Monte-Carlo cross-check of one resistance value.
	u, v := s, exact.Eccentricity(s).Farthest
	mc, err := stats.ResistanceMC(lcc.g, u, v, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := exact.Resistance(u, v)
	if rel := math.Abs(mc-want) / want; rel > 0.15 {
		t.Fatalf("MC r=%g vs exact %g (rel %.3f)", mc, want, rel)
	}
}
