package ecc

import (
	"context"
	"errors"
	"testing"

	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/sketch"
)

// batchTestIndexes returns EXACTQUERY, APPROXQUERY and FASTQUERY indexes of
// one BA(150) graph; the last two share sketch options, so they differ only
// in their candidate sets.
func batchTestIndexes(t *testing.T) (*Exact, *Fast, *Fast) {
	t.Helper()
	g := graph.BarabasiAlbert(150, 3, 9)
	ex, err := NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	skOpt := sketch.Options{Epsilon: 0.3, Dim: 32, Seed: 3}
	ap, err := NewApproxContext(context.Background(), g, skOpt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFastContext(context.Background(), g, FastOptions{Sketch: skOpt})
	if err != nil {
		t.Fatal(err)
	}
	return ex, ap, f
}

// TestQueryBatchBitIdentical pins batched == serial for all three engines,
// including duplicate ids (answered from one kernel evaluation) and a reused
// buffer across batches of different sizes.
func TestQueryBatchBitIdentical(t *testing.T) {
	ex, ap, f := batchTestIndexes(t)
	buf := GetQueryBuf()
	defer buf.Release()
	batches := [][]int{
		{},
		{17},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{42, 42, 42},                          // all duplicates
		{5, 99, 5, 130, 99, 5, 0},             // interleaved duplicates
		{149, 0, 75, 3, 75, 149, 12, 61, 149}, // remainder-lane sizes
	}
	for _, q := range batches {
		for name, engine := range map[string]interface {
			QueryBatch([]int, *QueryBuf) []Value
			Eccentricity(int) Value
		}{"exact": ex, "approx": ap, "fast": f} {
			got := engine.QueryBatch(q, buf)
			if len(got) != len(q) {
				t.Fatalf("%s: batch %v returned %d values", name, q, len(got))
			}
			for i, v := range q {
				want := engine.Eccentricity(v)
				if got[i] != want {
					t.Fatalf("%s: batch %v position %d: got %+v, want %+v", name, q, i, got[i], want)
				}
			}
		}
	}
}

// TestQueryBatchParallelSpill crosses the minParallelSources threshold so
// the shared worker pool runs, and pins that sharded results remain
// bit-identical to per-node queries for both candidate sets (boundary and
// all n nodes). Run under -race this also pins the shard handoff.
func TestQueryBatchParallelSpill(t *testing.T) {
	_, ap, f := batchTestIndexes(t)
	q := make([]int, 220) // 150 uniques after dedup, well past the threshold
	for i := range q {
		q[i] = (i * 7) % 150
	}
	buf := GetQueryBuf()
	defer buf.Release()
	for name, engine := range map[string]interface {
		QueryBatch([]int, *QueryBuf) []Value
		Eccentricity(int) Value
	}{"approx": ap, "fast": f} {
		got := engine.QueryBatch(q, buf)
		for i, v := range q {
			if want := engine.Eccentricity(v); got[i] != want {
				t.Fatalf("%s position %d (node %d): got %+v, want %+v", name, i, v, got[i], want)
			}
		}
	}
}

// TestQueryMatchesQueryBatch pins the rewritten Query methods onto the same
// results as the batch engine and as each other.
func TestQueryMatchesQueryBatch(t *testing.T) {
	_, ap, f := batchTestIndexes(t)
	q := []int{3, 77, 3, 120, 0}
	buf := GetQueryBuf()
	defer buf.Release()
	for i, v := range f.Query(q) {
		if want := f.QueryBatch(q, buf)[i]; v != want {
			t.Fatalf("fast Query[%d] = %+v, QueryBatch = %+v", i, v, want)
		}
	}
	for i, v := range ap.Query(q) {
		if want := ap.QueryBatch(q, buf)[i]; v != want {
			t.Fatalf("approx Query[%d] = %+v, QueryBatch = %+v", i, v, want)
		}
	}
}

// TestDistributionMatchesSerial pins Distribution, which runs the sharded
// batch path (n ≥ minParallelSources), against per-node scans.
func TestDistributionMatchesSerial(t *testing.T) {
	_, ap, f := batchTestIndexes(t)
	for v, c := range f.Distribution() {
		if want := f.Eccentricity(v).Ecc; c != want {
			t.Fatalf("fast Distribution[%d] = %v, want %v", v, c, want)
		}
	}
	for v, c := range ap.Distribution() {
		if want := ap.Eccentricity(v).Ecc; c != want {
			t.Fatalf("approx Distribution[%d] = %v, want %v", v, c, want)
		}
	}
}

// TestQueryBufDedup exercises the packed-key dedup directly: ordering,
// permutation fan-out, and the single-node fast path.
func TestQueryBufDedup(t *testing.T) {
	var b QueryBuf
	q := []int{9, 2, 9, 9, 2, 14}
	b.grow(len(q))
	nu := b.dedup(q)
	if nu != 3 {
		t.Fatalf("dedup(%v) = %d uniques, want 3", q, nu)
	}
	wantUniq := []int{2, 9, 14}
	for i, v := range wantUniq {
		if b.uniq[i] != v {
			t.Fatalf("uniq = %v, want %v", b.uniq[:nu], wantUniq)
		}
	}
	for i, v := range q {
		if b.uniq[b.perm[i]] != v {
			t.Fatalf("perm[%d] maps to node %d, want %d", i, b.uniq[b.perm[i]], v)
		}
	}

	b.grow(1)
	if nu := b.dedup([]int{42}); nu != 1 || b.uniq[0] != 42 || b.perm[0] != 0 {
		t.Fatalf("single-node dedup: nu=%d uniq=%v perm=%v", nu, b.uniq[:1], b.perm[:1])
	}
}

// TestFastDiameterDegenerate pins the satellite fix: a boundary with fewer
// than two nodes must report ok=false instead of a fake (0, {0,0}).
func TestFastDiameterDegenerate(t *testing.T) {
	_, _, f := batchTestIndexes(t)
	deg := &Fast{Sk: f.Sk, Boundary: f.Boundary[:1]}
	if d, pair, ok := deg.Diameter(); ok {
		t.Fatalf("1-node boundary: ok=true (d=%v pair=%+v), want ok=false", d, pair)
	}
	deg.Boundary = nil
	if _, _, ok := deg.Diameter(); ok {
		t.Fatal("empty boundary: ok=true, want ok=false")
	}
	if _, _, ok := f.Diameter(); !ok {
		t.Fatal("real boundary: ok=false, want ok=true")
	}
}

// TestHullOptionsTheta pins the θ-resolution satellite fix: WithDim-style
// options (Dim set, Epsilon zero) must fail with ErrBadEpsilon instead of
// silently building a θ = 0 hull.
func TestHullOptionsTheta(t *testing.T) {
	if _, err := HullOptionsFor(FastOptions{Sketch: sketch.Options{Dim: 32}}); err == nil {
		t.Fatal("zero epsilon and zero theta: want error, got nil")
	} else if !errors.Is(err, sketch.ErrBadEpsilon) {
		t.Fatalf("error %v does not wrap ErrBadEpsilon", err)
	}
	hopt, err := HullOptionsFor(FastOptions{Sketch: sketch.Options{Epsilon: 0.24, Seed: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if hopt.Theta != 0.02 {
		t.Fatalf("theta = %v, want eps/12 = 0.02", hopt.Theta)
	}
	if hopt.Seed != 7 {
		t.Fatalf("seed = %v, want sketch seed + 1 = 7", hopt.Seed)
	}
	// An explicit Theta needs no epsilon.
	if _, err := HullOptionsFor(FastOptions{Hull: hull.Options{Theta: 0.1}}); err != nil {
		t.Fatal(err)
	}
}
