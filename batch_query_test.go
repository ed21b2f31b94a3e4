package resistecc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
)

// batchTestGraph is shared by the batch equivalence tests: small enough for
// the exact index, large enough for remainder lanes and duplicates.
func batchTestGraph(tb testing.TB) *Graph {
	tb.Helper()
	g, err := BarabasiAlbert(200, 3, 21)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

type batchIndex interface {
	Query(nodes []int) ([]Eccentricity, error)
	QueryBatch(nodes []int, buf *BatchBuf) ([]Eccentricity, error)
	Eccentricity(v int) Eccentricity
	N() int
}

// TestQueryBatchEquivalence pins, for all three index kinds, that QueryBatch
// equals Query equals per-node Eccentricity — bit-identical, in request
// order, with duplicates answered identically — and that out-of-range ids
// fail the whole batch with ErrNodeOutOfRange.
func TestQueryBatchEquivalence(t *testing.T) {
	g := batchTestGraph(t)
	ctx := context.Background()
	exact, err := NewExactIndex(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewApproxIndex(ctx, g, WithEpsilon(0.3), WithDim(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewFastIndex(ctx, g, WithEpsilon(0.3), WithDim(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]int{
		{},
		{42},
		{0, 1, 2, 3, 4, 5, 6},
		{13, 13, 13, 13},
		{199, 0, 73, 13, 73, 199, 5},
	}
	for name, ix := range map[string]batchIndex{"exact": exact, "approx": approx, "fast": fast} {
		buf := GetBatchBuf()
		for _, q := range batches {
			serial, err := ix.Query(q)
			if err != nil {
				t.Fatalf("%s Query(%v): %v", name, q, err)
			}
			batched, err := ix.QueryBatch(q, buf)
			if err != nil {
				t.Fatalf("%s QueryBatch(%v): %v", name, q, err)
			}
			if len(serial) != len(q) || len(batched) != len(q) {
				t.Fatalf("%s %v: lengths %d / %d", name, q, len(serial), len(batched))
			}
			for i := range q {
				if serial[i] != batched[i] || batched[i] != ix.Eccentricity(q[i]) {
					t.Fatalf("%s %v position %d: serial %+v batched %+v single %+v",
						name, q, i, serial[i], batched[i], ix.Eccentricity(q[i]))
				}
			}
		}
		for _, bad := range [][]int{{-1}, {ix.N()}, {0, 5, ix.N() + 3}} {
			if _, err := ix.QueryBatch(bad, buf); !errors.Is(err, ErrNodeOutOfRange) {
				t.Fatalf("%s QueryBatch(%v): err=%v, want ErrNodeOutOfRange", name, bad, err)
			}
			if _, err := ix.Query(bad); !errors.Is(err, ErrNodeOutOfRange) {
				t.Fatalf("%s Query(%v): err=%v, want ErrNodeOutOfRange", name, bad, err)
			}
		}
		buf.Release()
	}
}

// TestQueryBatchConcurrent hammers one FastIndex from several goroutines,
// each with its own pooled buffer; run under -race this pins that buffers
// are goroutine-local and the index read path is safe to share.
func TestQueryBatchConcurrent(t *testing.T) {
	g := batchTestGraph(t)
	ix, err := NewFastIndex(context.Background(), g, WithEpsilon(0.3), WithDim(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Query([]int{7, 7, 191, 0, 44})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := GetBatchBuf()
			defer buf.Release()
			for iter := 0; iter < 50; iter++ {
				got, err := ix.QueryBatch([]int{7, 7, 191, 0, 44}, buf)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- errors.New("concurrent batch diverged from serial answer")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDynamicQueryBatch pins DynamicIndex.Query/QueryBatch against the
// pinned-snapshot path on a quiesced index.
func TestDynamicQueryBatch(t *testing.T) {
	g := batchTestGraph(t)
	ctx := context.Background()
	d, err := NewDynamicIndex(ctx, g, WithEpsilon(0.3), WithDim(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	q := []int{3, 150, 3, 0, 99}
	want, err := d.Snapshot().Index.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	buf := GetBatchBuf()
	defer buf.Release()
	gotB, err := d.QueryBatch(q, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if got[i] != want[i] || gotB[i] != want[i] {
			t.Fatalf("position %d: Query %+v QueryBatch %+v snapshot %+v", i, got[i], gotB[i], want[i])
		}
	}
	if _, err := d.QueryBatch([]int{d.Snapshot().N}, buf); !errors.Is(err, ErrNodeOutOfRange) {
		t.Fatalf("out-of-range: err=%v, want ErrNodeOutOfRange", err)
	}
}

// TestResistanceDiameterDegenerate pins the public surface of the Diameter
// satellite fix: ErrDegenerateHull, not a fake zero answer.
func TestResistanceDiameterDegenerate(t *testing.T) {
	// A single-node graph is the smallest index whose hull collapses to one
	// representative, leaving no boundary pair to scan.
	ix, err := NewFastIndex(context.Background(), PathGraph(1),
		WithEpsilon(0.3), WithDim(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.ResistanceDiameter(); !errors.Is(err, ErrDegenerateHull) {
		t.Fatalf("1-vertex hull: err=%v, want ErrDegenerateHull", err)
	}
	ok, err := NewFastIndex(context.Background(), batchTestGraph(t),
		WithEpsilon(0.3), WithDim(32), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if d, pair, err := ok.ResistanceDiameter(); err != nil || d <= 0 || pair[0] == pair[1] {
		t.Fatalf("real hull: d=%v pair=%v err=%v", d, pair, err)
	}
}

// TestAnswerTablePerGeneration pins that every index generation keeps a
// witness table of its own, starting empty. It fills generation 1's table,
// then takes the writer through three incremental mutations and a rebuild,
// with a replica restored from generation 1's snapshot applying the
// same mutations. Each generation must answer, on its first and its repeat
// queries, exactly as a fresh ecc.Fast over its own sketch and boundary, and
// the replica and a restored index exactly as the writer.
func TestAnswerTablePerGeneration(t *testing.T) {
	ctx := context.Background()
	g := durableGraph(t)
	d, err := NewDynamicIndex(ctx, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	buf := GetBatchBuf()
	defer buf.Release()
	answers := func(ix *FastIndex) []Eccentricity {
		t.Helper()
		got, err := ix.QueryBatch(all, buf)
		if err != nil {
			t.Fatal(err)
		}
		return append([]Eccentricity(nil), got...)
	}
	same := func(what string, got, want []Eccentricity) {
		t.Helper()
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s: node %d answered %+v, want %+v", what, v, got[v], want[v])
			}
		}
	}
	fresh := func(what string, ix *FastIndex) {
		t.Helper()
		if a := ix.AnsweredNodes(); a != 0 {
			t.Fatalf("%s starts with %d answered nodes, want 0", what, a)
		}
	}
	// check queries the writer's current generation twice against a fresh
	// index over the same sketch and boundary, and returns its answers.
	check := func(what string) []Eccentricity {
		t.Helper()
		ix := d.Snapshot().Index
		fresh(what, ix)
		want := answers(&FastIndex{sketchIndex{&ecc.Fast{Sk: ix.f.Sk, Boundary: ix.f.Boundary}}})
		same(what+", first query", answers(ix), want)
		same(what+", repeat query", answers(ix), want)
		if a := ix.AnsweredNodes(); a != len(all) {
			t.Fatalf("%s: %d answered nodes after querying all %d", what, a, len(all))
		}
		return want
	}
	replicaMatches := func(what string, r *DynamicIndex, want []Eccentricity) {
		t.Helper()
		ix := r.Snapshot().Index
		fresh(what, ix)
		same(what, answers(ix), want)
		same(what+", repeat query", answers(ix), want)
	}

	want := check("generation 1")
	path := filepath.Join(t.TempDir(), "gen1.snap")
	if err := d.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := LoadSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	replicaMatches("replica at generation 1", replica, want)

	for _, e := range [][2]int{{0, 30}, {5, 45}, {7, 52}} {
		res, err := d.AddEdge(ctx, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		want = check(fmt.Sprintf("generation %d", res.Generation))
		rres, err := replica.AddEdge(ctx, e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		if rres.Generation != res.Generation {
			t.Fatalf("replica at generation %d, writer at %d", rres.Generation, res.Generation)
		}
		replicaMatches(fmt.Sprintf("replica at generation %d", rres.Generation), replica, want)
	}

	gen, err := d.RebuildAndWait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want = check(fmt.Sprintf("rebuilt generation %d", gen))
	path = filepath.Join(t.TempDir(), "rebuilt.snap")
	if err := d.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	replicaMatches("restored index", restored, want)
}

// TestApproxIndexMatchesFullScan pins APPROXQUERY, an ecc.Fast whose
// candidates are all n nodes, onto the full scan Sketch.Eccentricity bit for
// bit, on BA(150) and on the Unicode-language proxy (n = 614), through every
// query method. Eccentricity, Query and Distribution each start from an
// empty witness table, so they answer through the scan or the kernel.
// QueryBatch runs twice on one index: the first call answers every node
// through the kernel and fills the table, the second answers from it.
func TestApproxIndexMatchesFullScan(t *testing.T) {
	ctx := context.Background()
	ba, err := BarabasiAlbert(150, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	info, err := dataset.Get("Unicode-language")
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := info.Proxy(1)
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := proxy.LargestComponent()
	for _, tc := range []struct {
		name string
		g    *Graph
		n    int
	}{{"ba150", ba, 150}, {"Unicode-language", wrapGraph(lcc), 614}} {
		t.Run(tc.name, func(t *testing.T) {
			ix, err := NewApproxIndex(ctx, tc.g, WithEpsilon(0.3), WithDim(32), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			if ix.N() != tc.n {
				t.Fatalf("n = %d, want %d", ix.N(), tc.n)
			}
			sk := ix.f.Sk
			all := make([]int, tc.n)
			want := make([]Eccentricity, tc.n)
			for v := range all {
				all[v] = v
				c, far := sk.Eccentricity(v)
				want[v] = Eccentricity{Node: v, Value: c, Farthest: far}
			}
			same := func(what string, got []Eccentricity) {
				t.Helper()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: node %d answered %+v, want %+v", what, v, got[v], want[v])
					}
				}
			}
			// fresh is an APPROXQUERY index over ix's sketch with an empty
			// witness table.
			fresh := func() *ApproxIndex {
				return &ApproxIndex{sketchIndex{&ecc.Fast{Sk: sk, Boundary: ix.f.Boundary}}}
			}

			single := make([]Eccentricity, tc.n)
			for v := range all {
				single[v] = ix.Eccentricity(v)
			}
			same("Eccentricity", single)
			q, err := fresh().Query(all)
			if err != nil {
				t.Fatal(err)
			}
			same("Query", q)
			for v, c := range fresh().Distribution() {
				if c != want[v].Value {
					t.Fatalf("Distribution: node %d = %v, want %v", v, c, want[v].Value)
				}
			}

			buf := GetBatchBuf()
			defer buf.Release()
			for _, pass := range []string{"kernel", "witness table"} {
				if a := ix.f.Answered(); (pass == "kernel") != (a == 0) {
					t.Fatalf("QueryBatch through the %s: %d answered nodes before it", pass, a)
				}
				got, err := ix.QueryBatch(all, buf)
				if err != nil {
					t.Fatal(err)
				}
				same("QueryBatch through the "+pass, got)
				if a := ix.f.Answered(); a != tc.n {
					t.Fatalf("QueryBatch through the %s: %d answered nodes after it, want %d", pass, a, tc.n)
				}
			}
		})
	}
}
