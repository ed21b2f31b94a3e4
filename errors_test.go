package resistecc

import (
	"context"
	"errors"
	"testing"
)

// The public sentinels must match errors produced at every layer, so callers
// can branch with errors.Is without knowing which package failed.
func TestSentinelErrors(t *testing.T) {
	ctx := context.Background()

	// ErrBadEpsilon: approximate constructors require an explicit ε.
	if _, err := NewFastIndex(ctx, PathGraph(8)); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("missing epsilon: %v", err)
	}
	if _, err := NewApproxIndex(ctx, PathGraph(8), WithEpsilon(1.5)); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("epsilon out of range: %v", err)
	}

	// ErrDisconnected: exact and sketch builds refuse disconnected inputs.
	d := NewGraph(4)
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewExactIndex(ctx, d); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("exact on disconnected: %v", err)
	}
	if _, err := NewFastIndex(ctx, d, WithEpsilon(0.3), WithDim(8)); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("fast on disconnected: %v", err)
	}

	// Graph mutation sentinels.
	g := PathGraph(5)
	if err := g.AddEdge(0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate: %v", err)
	}
	if err := g.AddEdge(0, 17); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("range: %v", err)
	}
	if err := g.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if err := g.RemoveEdge(0, 3); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("remove missing: %v", err)
	}
}

// Two disjoint triangles have no isolated node, so a disconnected graph
// cannot be caught by a degree check: every root constructor must still
// refuse it, rather than answer r(0,3) across the two components.
func TestDisconnectedTrianglesRejected(t *testing.T) {
	ctx := context.Background()
	g := NewGraph(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	opts := []Option{WithEpsilon(0.3), WithDim(8), WithSeed(1)}
	for _, tc := range []struct {
		name  string
		build func() error
	}{
		{"NewExactIndex", func() error { _, err := NewExactIndex(ctx, g); return err }},
		{"NewApproxIndex", func() error { _, err := NewApproxIndex(ctx, g, opts...); return err }},
		{"NewFastIndex", func() error { _, err := NewFastIndex(ctx, g, opts...); return err }},
		{"NewDynamicIndex", func() error {
			d, err := NewDynamicIndex(ctx, g, opts...)
			if err == nil {
				d.Close()
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build(); !errors.Is(err, ErrDisconnected) {
				t.Fatalf("two disjoint triangles: err = %v, want ErrDisconnected", err)
			}
		})
	}
}

// A Plan naming out-of-range nodes must fail Apply cleanly, not panic.
func TestPlanApplyOutOfRange(t *testing.T) {
	g := PathGraph(6)
	p := &Plan{Algorithm: "handmade", Source: 0, Edges: [][2]int{{0, 42}}}
	if _, err := p.Apply(g, -1); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("apply out of range: %v", err)
	}
	// A duplicate edge is also a clean failure.
	p2 := &Plan{Algorithm: "handmade", Source: 0, Edges: [][2]int{{0, 1}}}
	if _, err := p2.Apply(g, -1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("apply duplicate: %v", err)
	}
}

// Batch Query on every index flavor rejects out-of-range nodes with
// ErrNodeOutOfRange instead of panicking.
func TestBatchQueryOutOfRange(t *testing.T) {
	ctx := context.Background()
	g := CycleGraph(10)

	ex, err := NewExactIndex(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Query([]int{3, -1}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("exact batch: %v", err)
	}

	ap, err := NewApproxIndex(ctx, g, WithEpsilon(0.3), WithDim(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ap.Query([]int{10}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("approx batch: %v", err)
	}

	fi, err := NewFastIndex(ctx, g, WithEpsilon(0.3), WithDim(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fi.Query([]int{0, 10}); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("fast batch: %v", err)
	}
	if vals, err := fi.Query([]int{0, 5}); err != nil || len(vals) != 2 {
		t.Fatalf("valid batch: %v %v", vals, err)
	}
}

// DynamicIndex surfaces the same sentinels for mutations.
func TestDynamicIndexSentinels(t *testing.T) {
	ctx := context.Background()
	d, err := NewDynamicIndex(ctx, CycleGraph(12), WithEpsilon(0.3), WithDim(16), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddEdge(ctx, 0, 1); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("dynamic duplicate: %v", err)
	}
	if _, err := d.AddEdge(ctx, 0, 50); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("dynamic range: %v", err)
	}
	if _, err := d.RemoveEdge(ctx, 0, 6); !errors.Is(err, ErrEdgeNotFound) {
		t.Fatalf("dynamic missing edge: %v", err)
	}
	res, err := d.AddEdge(ctx, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("dynamic add: %+v", res)
	}
	if s := d.Snapshot(); s.Generation != 2 || s.M != 13 {
		t.Fatalf("snapshot: %+v", s)
	}
	d.Close()
	if _, err := d.AddEdge(ctx, 1, 7); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("after close: %v", err)
	}
}
