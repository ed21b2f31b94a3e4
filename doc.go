// Package resistecc is a Go implementation of the algorithms from
// "Resistance Eccentricity in Graphs: Distribution, Computation and
// Optimization" (Lu, Zhou, Zehmakan, Zhang — ICDE 2024).
//
// The resistance eccentricity of a node v in a connected graph is
// c(v) = max_u r(v,u), the largest effective resistance from v to any other
// node when every edge is a unit resistor. This package provides:
//
//   - Exact computation via the Laplacian pseudoinverse (EXACTQUERY).
//   - Near-linear-time (1±ε)-approximation via Johnson–Lindenstrauss
//     resistance sketches and approximate convex hulls (APPROXQUERY and
//     FASTQUERY), scaling to graphs where the O(n³) exact method is
//     infeasible.
//   - Distribution-level metrics: resistance radius, diameter, center, and
//     Burr Type XII fits of the eccentricity distribution.
//   - Optimization: choosing k edges to add so as to minimize c(s) of a
//     source node s, under the REMD regime (edges must touch s) and the REM
//     regime (arbitrary edges), with the paper's greedy heuristics
//     (Simple, FarMinRecc, CenMinRecc, ChMinRecc, MinRecc), exhaustive
//     optima for small instances, and the DE/PK/PATH/RAND baselines.
//   - Dynamic serving: DynamicIndex keeps a FastIndex live across online
//     edge mutations with generation-numbered immutable snapshots, rank-1
//     incremental sketch updates, and cancellable background rebuilds.
//
// # Quick start
//
//	g, _ := resistecc.BarabasiAlbert(2000, 4, 1)
//	idx, _ := resistecc.NewFastIndex(context.Background(), g,
//		resistecc.WithEpsilon(0.2), resistecc.WithDim(64), resistecc.WithSeed(1))
//	v := idx.Eccentricity(0)
//	fmt.Printf("c(0) ≈ %.3f (farthest node %d)\n", v.Value, v.Farthest)
//
// Index constructors take functional options (WithEpsilon, WithDim,
// WithSeed, WithMaxHullVertices, ...) and a context that cancels the
// build. DESIGN.md §7 has the migration notes for removed names.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// mapping between paper sections and packages.
package resistecc
