package lifecycle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/sketch"
	"resistecc/internal/solver"
)

func testConfig() Config {
	return Config{
		Sketch: sketch.Options{Epsilon: 0.3, Dim: 64, Seed: 21},
	}
}

func newManager(t *testing.T, g *graph.Graph, cfg Config) *Manager {
	t.Helper()
	m, err := New(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// sameIndex asserts two Fast indexes are bit-identical: same boundary and
// same sketched resistances on a pair sample.
func sameIndex(t *testing.T, got, want *ecc.Fast, n int) {
	t.Helper()
	if len(got.Boundary) != len(want.Boundary) {
		t.Fatalf("boundary size %d, want %d", len(got.Boundary), len(want.Boundary))
	}
	for i, v := range want.Boundary {
		if got.Boundary[i] != v {
			t.Fatalf("boundary[%d] = %d, want %d", i, got.Boundary[i], v)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 3 {
			if g, w := got.Sk.Resistance(u, v), want.Sk.Resistance(u, v); g != w {
				t.Fatalf("resistance(%d,%d) = %g, want %g (not bit-identical)", u, v, g, w)
			}
		}
	}
}

func TestIncrementalAddPublishesNewGeneration(t *testing.T) {
	g := graph.Cycle(24)
	m := newManager(t, g, testConfig())
	s0 := m.Current()
	if s0.Gen != 1 {
		t.Fatalf("initial generation %d, want 1", s0.Gen)
	}
	res, err := m.AddEdge(context.Background(), 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Gen != 2 {
		t.Fatalf("generation %d, want 2", res.Gen)
	}
	s1 := m.Current()
	if s1.Gen != 2 || s1.M != g.M()+1 {
		t.Fatalf("snapshot gen=%d m=%d, want 2, %d", s1.Gen, s1.M, g.M()+1)
	}
	// The old snapshot is untouched (RCU): still answers with the old edge
	// count and its own sketch.
	if s0.M != g.M() {
		t.Fatalf("old snapshot mutated: m=%d", s0.M)
	}
}

func TestMutationValidation(t *testing.T) {
	g := graph.Path(10)
	m := newManager(t, g, testConfig())
	ctx := context.Background()
	if _, err := m.AddEdge(ctx, 0, 99); !errors.Is(err, graph.ErrNodeRange) {
		t.Fatalf("out of range: %v", err)
	}
	if _, err := m.AddEdge(ctx, 3, 3); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop: %v", err)
	}
	if _, err := m.AddEdge(ctx, 0, 1); !errors.Is(err, graph.ErrDuplicateEdge) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := m.RemoveEdge(ctx, 0, 5); !errors.Is(err, graph.ErrEdgeNotFound) {
		t.Fatalf("missing edge: %v", err)
	}
	// Every path edge is a bridge: removal must be refused structurally.
	if _, err := m.RemoveEdge(ctx, 4, 5); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("bridge removal: %v", err)
	}
	// Nothing above may have changed the graph or generation.
	if st := m.Stats(); st.Generation != 1 || st.M != g.M() || m.Seq() != 0 {
		t.Fatalf("stats after rejected mutations: gen=%d m=%d seq=%d", st.Generation, st.M, m.Seq())
	}
}

// TestNearBridgeRemovalIsIncremental: removing a cycle edge keeps the
// graph connected, though its resistance (n-1)/n = 0.975 leaves little of
// 1 − r. The update solves on the graph the removal leaves, so it needs no
// more: the removal publishes generation 2 from one update and schedules no
// rebuild. A requested rebuild then serves exactly what a cold build of the
// path would.
func TestNearBridgeRemovalIsIncremental(t *testing.T) {
	g := graph.Cycle(40)
	cfg := testConfig()
	m := newManager(t, g, cfg)
	ctx := context.Background()
	res, err := m.RemoveEdge(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	cur, st := m.Current(), m.Stats()
	if res.Gen != 2 || cur.Gen != 2 || st.Rebuilds != 0 || st.Updates != 1 || st.M != g.M()-1 {
		t.Fatalf("removal at generation %d, serving %d: %+v; want generation 2 from one update, no rebuild and m = %d",
			res.Gen, cur.Gen, st, g.M()-1)
	}
	if _, err := m.RebuildAndWait(ctx); err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	if err := want.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cold, err := ecc.NewFastContext(ctx, want, ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull})
	if err != nil {
		t.Fatal(err)
	}
	sameIndex(t, m.Current().Fast, cold, want.N())
}

// TestIncrementalAccuracy: without any rebuild, the served eccentricities
// stay within ε of the exact values of the mutated graph.
func TestIncrementalAccuracy(t *testing.T) {
	g := graph.BarabasiAlbert(48, 3, 17)
	cfg := Config{Sketch: sketch.Options{Epsilon: 0.3, Dim: 512, Seed: 31}}
	m := newManager(t, g, cfg)
	ctx := context.Background()
	work := g.Clone()
	added := 0
	for u := 0; u < work.N() && added < 4; u++ {
		v := (u + work.N()/2) % work.N()
		if u == v || work.HasEdge(u, v) {
			continue
		}
		if _, err := m.AddEdge(ctx, u, v); err != nil {
			t.Fatal(err)
		}
		if err := work.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		added++
	}
	st := m.Stats()
	if st.Updates != added || st.Rebuilds != 0 {
		t.Fatalf("updates=%d rebuilds=%d, want %d, 0", st.Updates, st.Rebuilds, added)
	}
	exact, err := ecc.NewExact(work)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	// Use the sketch's full scan (no hull pruning) to isolate update error.
	for v := 0; v < work.N(); v += 5 {
		want := exact.Eccentricity(v).Ecc
		got, _ := snap.Fast.Sk.Eccentricity(v)
		tol := 0.25 * want // ε_emp at d=512 is well under 0.25
		if math.Abs(got-want) > tol {
			t.Fatalf("node %d: |%g-%g| > %g", v, got, want, tol)
		}
	}
}

// TestConcurrentQueriesDuringSwaps hammers Current()+query, Stats, Seq and
// CheckpointState from many goroutines while mutations and rebuilds churn
// generations. Run under -race this is the swap-safety test for every
// lock-free state read; in any mode it asserts that each reader sees
// sequence and generation never decrease, that every snapshot is internally
// consistent, and that every checkpoint cut pairs an index with the graph
// of its own sequence: the base Cycle(32) plus one distinct add per
// sequence number.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	g := graph.Cycle(32)
	m := newManager(t, g, testConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			lastGen, lastSeq := uint64(0), uint64(0)
			// monotone records one (sequence, generation) observation.
			monotone := func(seq, gen uint64) error {
				if seq < lastSeq || gen < lastGen {
					return fmt.Errorf("seq %d gen %d after seq %d gen %d", seq, gen, lastSeq, lastGen)
				}
				lastSeq, lastGen = seq, gen
				return nil
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Current()
				if err := monotone(m.Seq(), snap.Gen); err != nil {
					errCh <- err
					return
				}
				val := snap.Fast.Eccentricity((seed + i) % snap.N)
				if val.Ecc <= 0 || val.Farthest < 0 || val.Farthest >= snap.N {
					errCh <- errors.New("inconsistent snapshot answer")
					return
				}
				gen := m.Stats().Generation
				if err := monotone(m.Seq(), gen); err != nil {
					errCh <- err
					return
				}
				cs := m.CheckpointState()
				err := monotone(cs.Seq, cs.Gen)
				if err == nil && (cs.Fast.Sk.N != cs.Graph.N() || uint64(cs.Graph.M()) != 32+cs.Seq) {
					err = fmt.Errorf("cut at seq %d: index n=%d over graph n=%d m=%d",
						cs.Seq, cs.Fast.Sk.N, cs.Graph.N(), cs.Graph.M())
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}

	ctx := context.Background()
	for i := 0; i < 12; i++ {
		u := i % 32
		v := (u + 16) % 32
		if _, err := m.AddEdge(ctx, u, v); err != nil && !errors.Is(err, graph.ErrDuplicateEdge) {
			t.Fatal(err)
		}
		if i%2 == 1 {
			m.TriggerRebuild() // rebuilds churn generations between the adds
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := m.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestRebuildsKeepUpWithBackToBackWrites: mutations sent with no gap
// between them, on the Unicode-language proxy at reccd's shipped build
// values, with a rebuild requested after every removal. Each rebuild runs
// before the next mutation, so every one lands, and every add is answered
// from the index the rebuild before it published: its generation is one
// past the rebuild's.
func TestRebuildsKeepUpWithBackToBackWrites(t *testing.T) {
	g := servedGraph(t, "Unicode-language")
	cfg := Config{
		Sketch: sketch.Options{Epsilon: 0.2, Dim: 128, Seed: 1},
		Hull:   hull.Options{MaxVertices: 64},
	}
	m := newManager(t, g, cfg)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	var requested uint64
	for acks := 0; acks < 12; acks += 2 {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v || g.HasEdge(u, v) {
			continue
		}
		add, err := m.AddEdge(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := m.RemoveEdge(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		m.TriggerRebuild()
		// Generations: the add, its removal, the rebuild, and so on.
		if want := 1 + 3*requested + 1; add.Gen != want || rm.Gen != want+1 {
			t.Fatalf("add (%d,%d) at generation %d, its removal at %d; want %d and %d", u, v, add.Gen, rm.Gen, want, want+1)
		}
		requested++
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := m.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rebuilds != requested || st.Generation != 1+3*requested {
		t.Fatalf("%d rebuilds for %d requested: %+v", st.Rebuilds, requested, st)
	}
}

// servedGraph loads a dataset proxy the way reccd loads its -in file:
// written as an edge list, read back, cut to the largest component, so
// node ids match the served index's.
func servedGraph(t *testing.T, name string) *graph.Graph {
	t.Helper()
	info, err := dataset.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := info.Proxy(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proxy.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lcc, _ := g.LargestComponent()
	return lcc
}

// TestRemovalServesWithinEpsilon: on the Unicode-language proxy at reccd's
// defaults, removing (30,281), whose resistance is 0.621, publishes an
// incremental generation as accurate as the base index (σ 0.2152, 360 of
// 614 answers outside ε): the update is exact, so the removed edge's
// column leaves the projection with it. The rank-1 update it replaced
// kept that column, and its generation had σ 0.866 with all 614 answers
// outside ε.
func TestRemovalServesWithinEpsilon(t *testing.T) {
	const eps = 0.2
	g := servedGraph(t, "Unicode-language")
	m := newManager(t, g, Config{
		Sketch: sketch.Options{Epsilon: eps, Dim: 128, Seed: 1},
		Hull:   hull.Options{MaxVertices: 64},
	})
	res, err := m.RemoveEdge(context.Background(), 30, 281)
	if err != nil {
		t.Fatal(err)
	}
	cur := m.Current()
	if res.Gen != 2 || cur.Gen != res.Gen || m.Stats().Rebuilds != 0 {
		t.Fatalf("removal: %+v, serving generation %d; want generation 2 and no rebuild", res, cur.Gen)
	}
	if err := g.RemoveEdge(30, 281); err != nil {
		t.Fatal(err)
	}
	ex, err := ecc.NewExact(g)
	if err != nil {
		t.Fatal(err)
	}
	exact, served := ex.Distribution(), cur.Fast.Distribution()
	sigma, err := ecc.RelativeError(served, exact)
	if err != nil {
		t.Fatal(err)
	}
	outside := 0
	for v, c := range exact {
		if math.Abs(served[v]-c) > eps*c {
			outside++
		}
	}
	t.Logf("generation %d: σ %.4f, %d of %d answers outside ε", cur.Gen, sigma, outside, len(exact))
	if sigma > 0.25 || outside > 370 {
		t.Fatalf("σ %.4f with %d answers outside ε, want σ ≤ 0.25 and at most 370", sigma, outside)
	}
}

// TestFailedRebuildDoesNotSpin: with a one-iteration solver cap every
// solve fails. An add is then refused with the solver's error and changes
// nothing: the journal sees no append, and generation, sequence and edge
// count stay. A requested rebuild fails too; each is counted once, and
// WaitIdle returns instead of waiting on retries.
func TestFailedRebuildDoesNotSpin(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 5)
	cfg := testConfig()
	fast, err := ecc.NewFastContext(context.Background(), g, ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sketch.Solver.MaxIter = 1
	m, err := NewFromState(g, fast, Restored{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	ctx := context.Background()
	j := &fakeJournal{m: m}
	if err := m.AttachJournal(ctx, j); err != nil {
		t.Fatal(err)
	}
	round := uint64(0)
	for v := 1; round < 2; v++ {
		if g.HasEdge(0, v) {
			continue
		}
		round++
		if _, err := m.AddEdge(ctx, 0, v); !errors.Is(err, solver.ErrNoConvergence) {
			t.Fatalf("round %d: add (0,%d): %v, want solver.ErrNoConvergence", round, v, err)
		}
		if st := m.Stats(); j.appended() != 0 || st.Generation != 1 || m.Seq() != 0 || st.M != g.M() {
			t.Fatalf("round %d: refused add left %d appends, generation %d, seq %d, m %d; want 0, 1, 0 and %d",
				round, j.appended(), st.Generation, m.Seq(), st.M, g.M())
		}
		m.TriggerRebuild()
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err := m.WaitIdle(wctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: WaitIdle: %v", round, err)
		}
		if st := m.Stats(); st.RebuildFailures != round || st.Generation != 1 {
			t.Fatalf("round %d: %d rebuild failures at generation %d, want %d at 1", round, st.RebuildFailures, st.Generation, round)
		}
	}
}

func TestClosedManagerRejectsMutations(t *testing.T) {
	g := graph.Cycle(12)
	m, err := New(context.Background(), g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Current()
	m.Close()
	if _, err := m.AddEdge(context.Background(), 0, 6); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutation after close: %v", err)
	}
	// Snapshots outlive the manager.
	if v := snap.Fast.Eccentricity(0); v.Ecc <= 0 {
		t.Fatal("snapshot unusable after close")
	}
}

func TestNewRejectsDisconnected(t *testing.T) {
	g := graph.New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := New(context.Background(), g, testConfig()); !errors.Is(err, graph.ErrDisconnected) {
		t.Fatalf("disconnected input: %v", err)
	}
}
