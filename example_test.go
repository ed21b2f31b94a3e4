package resistecc_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"resistecc"
)

// The star graph of Figure 1(c): the hub has resistance eccentricity 1,
// every leaf 2; the resistance radius is 1, the diameter 2, and the hub is
// the unique resistance-central node.
func ExampleNewExactIndex() {
	g := resistecc.StarGraph(6)
	idx, err := resistecc.NewExactIndex(context.Background(), g)
	if err != nil {
		panic(err)
	}
	hub := idx.Eccentricity(0)
	leaf := idx.Eccentricity(3)
	fmt.Printf("c(hub)=%.0f c(leaf)=%.0f\n", hub.Value, leaf.Value)
	sum := resistecc.Summarize(idx.Distribution())
	fmt.Printf("radius=%.0f diameter=%.0f center=%v\n", sum.Radius, sum.Diameter, sum.Center)
	// Output:
	// c(hub)=1 c(leaf)=2
	// radius=1 diameter=2 center=[0]
}

// Resistance distances on the path graph equal hop distances, so the
// eccentricity of an endpoint is n−1.
func ExampleNewFastIndex() {
	g := resistecc.PathGraph(64)
	idx, err := resistecc.NewFastIndex(context.Background(), g,
		resistecc.WithEpsilon(0.3), resistecc.WithDim(512),
		resistecc.WithSeed(1), resistecc.WithMaxHullVertices(16))
	if err != nil {
		panic(err)
	}
	v := idx.Eccentricity(0)
	rel := (v.Value - 63) / 63
	fmt.Printf("endpoint eccentricity within 10%% of exact: %v, farthest node %d\n",
		rel > -0.1 && rel < 0.1, v.Farthest)
	// Output:
	// endpoint eccentricity within 10% of exact: true, farthest node 63
}

// Adding an edge between the two ends of a path closes it into a cycle and
// halves the source's worst-case resistance — the Figure 3 phenomenon that
// motivates Problem 2 (REM).
func ExampleGreedyExact() {
	g := resistecc.PathGraph(6)
	source := 2 // the paper's node 3
	plan, err := resistecc.GreedyExact(g, resistecc.REM, source, 1)
	if err != nil {
		panic(err)
	}
	traj, err := plan.ExactTrajectory(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("picked %v: c(s) %.1f -> %.1f\n", plan.Edges, traj[0], traj[1])
	// Output:
	// picked [[0 5]]: c(s) 3.0 -> 1.5
}

// A DynamicIndex round-trips through a snapshot file: SaveSnapshot captures
// the graph, sketch matrix and hull boundary with per-section checksums, and
// LoadSnapshot restores an index that answers bit-identically — no solver
// work on the way back.
func ExampleDynamicIndex_SaveSnapshot() {
	g := resistecc.PathGraph(32)
	d, err := resistecc.NewDynamicIndex(context.Background(), g,
		resistecc.WithEpsilon(0.3), resistecc.WithDim(256), resistecc.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer d.Close()

	dir, err := os.MkdirTemp("", "resistecc-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "index.snap")
	if err := d.SaveSnapshot(path); err != nil {
		panic(err)
	}

	restored, err := resistecc.LoadSnapshot(path)
	if err != nil {
		panic(err)
	}
	defer restored.Close()
	before := d.Snapshot().Index.Eccentricity(0)
	after := restored.Snapshot().Index.Eccentricity(0)
	fmt.Printf("bit-identical after restore: %v\n", before.Value == after.Value)
	// Output:
	// bit-identical after restore: true
}
