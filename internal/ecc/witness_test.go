package ecc

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"resistecc/internal/dataset"
	"resistecc/internal/hull"
	"resistecc/internal/sketch"
)

type witnessCase struct {
	name string
	f    *Fast
}

// witnessIndexes returns fresh FASTQUERY indexes, in a fixed order: BA(150);
// a hull capped at one vertex over BA(150)'s own sketch, so a table shared
// between two indexes would answer it with the first one's witnesses; and
// the graphs of perfbench's serve and mixed workloads (the Politician and
// Unicode-language proxies) at reccd's ε and hull cap.
func witnessIndexes(t *testing.T) []witnessCase {
	t.Helper()
	_, _, ba := batchTestIndexes(t)
	hopt, err := HullOptionsFor(FastOptions{
		Sketch: sketch.Options{Epsilon: 0.3, Seed: 3},
		Hull:   hull.Options{MaxVertices: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := NewFastFromSketch(ba.Sk, hopt)
	if err != nil {
		t.Fatal(err)
	}
	if capped.L() != 1 {
		t.Fatalf("capped hull has %d vertices, want 1", capped.L())
	}
	out := []witnessCase{{"ba150", ba}, {"ba150-cap1", capped}}
	for _, name := range []string{"Politician", "Unicode-language"} {
		info, err := dataset.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := info.Proxy(1)
		if err != nil {
			t.Fatal(err)
		}
		lcc, _ := g.LargestComponent()
		f, err := NewFastContext(context.Background(), lcc, FastOptions{
			Sketch: sketch.Options{Epsilon: 0.2, Dim: 32, Seed: 1},
			Hull:   hull.Options{MaxVertices: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, witnessCase{name, f})
	}
	return out
}

// referenceAnswers is the table-free Eccentricity of every node.
func referenceAnswers(f *Fast) []Value {
	want := make([]Value, f.Sk.N)
	for v := range want {
		want[v] = f.Eccentricity(v)
	}
	return want
}

// TestQueryBatchWitnessBitIdentical sends every node through QueryBatch
// twice on a fresh index. The first pass's batches each hold new nodes, a
// duplicate of one, and nodes of earlier batches, so hits and misses share a
// batch, and two of them pass minParallelSources misses. The second pass
// answers every node from its witness. Each answer must equal the table-free
// Eccentricity bit for bit, witness included, and so must two Distribution
// calls.
func TestQueryBatchWitnessBitIdentical(t *testing.T) {
	for _, tc := range witnessIndexes(t) {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.f
			n := f.Sk.N
			if a := f.Answered(); a != 0 {
				t.Fatalf("fresh index has %d answered nodes, want 0", a)
			}
			want := referenceAnswers(f)
			buf := new(QueryBuf)
			check := func(pass int, q []int) {
				t.Helper()
				got := f.QueryBatch(q, buf)
				for i, v := range q {
					if got[i] != want[v] {
						t.Fatalf("pass %d, batch of %d, position %d: got %+v, want %+v", pass, len(q), i, got[i], want[v])
					}
				}
			}
			order := rand.New(rand.NewSource(int64(n))).Perm(n)
			sizes := []int{1, 2, 5, 70, 3, 130, 17}
			for seen, i := 0, 0; seen < n; i++ {
				s := min(sizes[i%len(sizes)], n-seen)
				q := append([]int(nil), order[seen:seen+s]...)
				q = append(q, order[seen])
				if seen > 0 {
					q = append(q, order[seen-1], order[seen/2], order[seen-1])
				}
				check(1, q)
				seen += s
				if a := f.Answered(); a != seen {
					t.Fatalf("after %d distinct nodes Answered = %d", seen, a)
				}
			}
			for lo := 0; lo < n; lo += 90 {
				q := append([]int(nil), order[lo:min(lo+90, n)]...)
				check(2, append(q, q[len(q)/2], q[0]))
			}
			d1, d2 := f.Distribution(), f.Distribution()
			for v := range want {
				if d1[v] != want[v].Ecc || d2[v] != want[v].Ecc {
					t.Fatalf("Distribution()[%d] = %v then %v, want %v", v, d1[v], d2[v], want[v].Ecc)
				}
			}
		})
	}
}

// TestQueryBatchConcurrentFill has eight goroutines, each with its own
// QueryBuf, fill one fresh index's table through overlapping batches, all
// released at once so they race to install the table and to store the same
// witnesses. Every answer must equal the table-free reference. CI runs it on
// its own under -race.
func TestQueryBatchConcurrentFill(t *testing.T) {
	_, _, base := batchTestIndexes(t)
	f := &Fast{Sk: base.Sk, Boundary: base.Boundary}
	n := f.Sk.N
	want := referenceAnswers(f)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := new(QueryBuf)
			r := rand.New(rand.NewSource(int64(g)))
			<-start
			for round := 0; round < 12; round++ {
				q := make([]int, 1+r.Intn(100))
				for i := range q {
					q[i] = r.Intn(n)
				}
				got := f.QueryBatch(q, buf)
				for i, v := range q {
					if got[i] != want[v] {
						t.Errorf("goroutine %d round %d position %d: got %+v, want %+v", g, round, i, got[i], want[v])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	buf := new(QueryBuf)
	all := identity(n)
	for v, got := range f.QueryBatch(all, buf) {
		if got != want[v] {
			t.Fatalf("after the fill, node %d: got %+v, want %+v", v, got, want[v])
		}
	}
}
