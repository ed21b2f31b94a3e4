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
	if res.Mode != ModeIncremental {
		t.Fatalf("mode %q, want incremental", res.Mode)
	}
	if res.Gen != 2 {
		t.Fatalf("generation %d, want 2", res.Gen)
	}
	if res.RebuildScheduled {
		t.Fatal("an exact add scheduled a rebuild")
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
	if st := m.Stats(); st.Generation != 1 || st.GraphM != g.M() {
		t.Fatalf("stats after rejected mutations: gen=%d m=%d", st.Generation, st.GraphM)
	}
}

// TestStaleRemovalSchedulesRebuild: removing a cycle edge keeps the graph
// connected but its resistance (n-1)/n ≈ 0.975 is past the Sherman–Morrison
// safety limit, so the mutation lands in stale mode and the rebuild it trips
// repairs the index to exactly a cold build.
func TestStaleRemovalSchedulesRebuild(t *testing.T) {
	g := graph.Cycle(40)
	cfg := testConfig()
	m := newManager(t, g, cfg)
	res, err := m.RemoveEdge(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeStale || !res.RebuildScheduled {
		t.Fatalf("mode=%q scheduled=%v, want stale + scheduled", res.Mode, res.RebuildScheduled)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rebuilds < 1 || st.Stale || st.Deletions != 0 {
		t.Fatalf("post-rebuild stats: %+v", st)
	}
	want := g.Clone()
	if err := want.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	cold, err := ecc.NewFastContext(context.Background(), want, ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull})
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
				cs, err := m.CheckpointState()
				if errors.Is(err, ErrStale) {
					continue
				}
				if err == nil {
					err = monotone(cs.Seq, cs.Gen)
				}
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

// TestStaleSkipsIncremental: once the index is stale the master graph is
// ahead of the served sketch, so further mutations must not run the
// incremental update (its precondition is violated); they land graph-only in
// ModeStale and the rebuild reflects all of them.
func TestStaleSkipsIncremental(t *testing.T) {
	g := graph.Cycle(24)
	cfg := testConfig()
	m := newManager(t, g, cfg)
	// Force the state a failed incremental update leaves behind, without
	// arming the rebuild yet, so the next mutation deterministically sees
	// stale=true.
	s := *m.st.Load()
	s.stale = true
	m.publish(s)
	res, err := m.AddEdge(context.Background(), 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeStale || !res.RebuildScheduled {
		t.Fatalf("mode=%q scheduled=%v, want stale + scheduled", res.Mode, res.RebuildScheduled)
	}
	if res.Gen != 1 {
		t.Fatalf("stale mutation published generation %d, want 1 (unchanged)", res.Gen)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Stale || st.Rebuilds < 1 {
		t.Fatalf("post-rebuild stats: %+v", st)
	}
	want := g.Clone()
	if err := want.AddEdge(0, 12); err != nil {
		t.Fatal(err)
	}
	cold, err := ecc.NewFastContext(context.Background(), want, ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull})
	if err != nil {
		t.Fatal(err)
	}
	sameIndex(t, m.Current().Fast, cold, want.N())
}

// TestMaxDeletionsTriggersAtThreshold: the rebuild fires once the deletion
// count reaches MaxDeletions, matching the documented "after this many edge
// removals" (not MaxDeletions+1).
func TestMaxDeletionsTriggersAtThreshold(t *testing.T) {
	g := graph.Complete(8)
	cfg := testConfig()
	cfg.MaxDeletions = 2
	m := newManager(t, g, cfg)
	ctx := context.Background()
	res, err := m.RemoveEdge(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeIncremental || res.RebuildScheduled {
		t.Fatalf("first removal: mode=%q scheduled=%v, want incremental + unscheduled", res.Mode, res.RebuildScheduled)
	}
	res, err = m.RemoveEdge(ctx, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.RebuildScheduled {
		t.Fatalf("second removal with MaxDeletions=2 did not schedule a rebuild: %+v", res)
	}
}

// TestRebuildsKeepUpWithBackToBackWrites: mutations sent with no gap
// between them, on the Unicode-language proxy at reccd's shipped build
// values, with every removal tripping a rebuild (MaxDeletions 1). Each
// tripped rebuild runs before the next mutation, so every one lands, and
// every add is answered incrementally from the index the rebuild before it
// published.
func TestRebuildsKeepUpWithBackToBackWrites(t *testing.T) {
	g := servedGraph(t, "Unicode-language")
	cfg := Config{
		Sketch:       sketch.Options{Epsilon: 0.2, Dim: 128, Seed: 1},
		Hull:         hull.Options{MaxVertices: 64},
		MaxDeletions: 1,
	}
	m := newManager(t, g, cfg)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(22))
	var tripped uint64
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
		if add.Mode != ModeIncremental || add.RebuildScheduled || !rm.RebuildScheduled {
			t.Fatalf("add (%d,%d): %+v, then its removal: %+v; want an incremental add and a tripped removal", u, v, add, rm)
		}
		tripped++
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := m.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Rebuilds != tripped {
		t.Fatalf("%d rebuilds for %d tripped acks: %+v", st.Rebuilds, tripped, st)
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
	if res.Mode != ModeIncremental || res.RebuildScheduled || cur.Gen != res.Gen {
		t.Fatalf("removal: %+v, serving generation %d; want an incremental generation and no rebuild", res, cur.Gen)
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
// add's solve fails, so the add goes stale and trips a rebuild, and that
// rebuild fails too. The failure is counted once per trip, the index stays
// stale, and WaitIdle returns instead of waiting on retries.
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
	round := uint64(0)
	for v := 1; round < 2; v++ {
		if g.HasEdge(0, v) {
			continue
		}
		round++
		res, err := m.AddEdge(ctx, 0, v)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ModeStale || !res.RebuildScheduled {
			t.Fatalf("round %d: mode=%q scheduled=%v, want stale + scheduled", round, res.Mode, res.RebuildScheduled)
		}
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		err = m.WaitIdle(wctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: WaitIdle: %v", round, err)
		}
		if st := m.Stats(); !st.Stale || st.RebuildFailures != round {
			t.Fatalf("round %d: stale=%v rebuild failures=%d, want stale and %d", round, st.Stale, st.RebuildFailures, round)
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
