package resistecc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resistecc/internal/persist"
	"resistecc/internal/testutil"
)

func durableOpts() []Option {
	return []Option{WithEpsilon(0.3), WithDim(64), WithSeed(21)}
}

func durableGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := RandomConnected(60, 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// coldDistribution is the ground truth a recovered index must match
// bit-for-bit: a cold FastIndex of the same graph with the same options.
func coldDistribution(t *testing.T, g *Graph) []float64 {
	t.Helper()
	f, err := NewFastIndex(context.Background(), g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return f.Distribution()
}

func dynDistribution(d *DynamicIndex) []float64 {
	return d.Snapshot().Index.Distribution()
}

func sameDistribution(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: eccentricity of node %d differs: %g vs %g", what, v, got[v], want[v])
		}
	}
}

func TestOpenDynamicIndexColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	d, info, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm || info.Reason != "no snapshot" {
		t.Fatalf("first open: %+v", info)
	}
	want := dynDistribution(d)
	sameDistribution(t, want, coldDistribution(t, g), "cold open vs cold build")
	gen := d.Snapshot().Generation
	d.Close()

	d2, info, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !info.Warm || info.ReplayedMutations != 0 {
		t.Fatalf("second open not warm: %+v", info)
	}
	if got := d2.Snapshot().Generation; got != gen {
		t.Fatalf("generation not preserved: %d vs %d", got, gen)
	}
	sameDistribution(t, dynDistribution(d2), want, "warm restart")

	ps := d2.PersistStats()
	if !ps.Durable || !ps.HasSnapshot || ps.WALRecords != 0 {
		t.Fatalf("persist stats after warm start: %+v", ps)
	}
}

// TestCrashRecoveryReplaysWAL is the kill-after-WAL-append case: mutations
// are acknowledged (and logged) but the process dies before any checkpoint.
// Recovery must replay them and, once quiesced, answer exactly like a cold
// build of the final edge set.
func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	// Mutations trip no rebuild, so no rebuild checkpoint absorbs the WAL
	// before the "crash".
	opts := durableOpts()
	d, _, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	muts := []struct {
		add  bool
		u, v int
	}{
		{true, 0, 30}, {true, 5, 45}, {false, 0, 30}, {true, 7, 52},
	}
	final := g.Clone()
	for _, mu := range muts {
		if mu.add {
			if _, err := d.AddEdge(ctx, mu.u, mu.v); err != nil {
				t.Fatalf("AddEdge(%d,%d): %v", mu.u, mu.v, err)
			}
			if err := final.AddEdge(mu.u, mu.v); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := d.RemoveEdge(ctx, mu.u, mu.v); err != nil {
				t.Fatalf("RemoveEdge(%d,%d): %v", mu.u, mu.v, err)
			}
			if err := final.RemoveEdge(mu.u, mu.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ps := d.PersistStats(); ps.JournalFailures != 0 || ps.WALRecords != len(muts) {
		t.Fatalf("pre-crash persist state: %+v", ps)
	}
	d.Close() // crash: no checkpoint call

	d2, info, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !info.Warm {
		t.Fatalf("recovery fell back to cold build: %+v", info)
	}
	if info.ReplayedMutations != len(muts) {
		t.Fatalf("replayed %d WAL records, want %d: %+v", info.ReplayedMutations, len(muts), info)
	}
	if got := d2.Stats().M; got != final.M() {
		t.Fatalf("recovered graph has %d edges, want %d", got, final.M())
	}

	// Quiesce to the canonical state and compare against a cold build of
	// the final edge set — bit-identical, not approximately equal.
	d2.TriggerRebuild()
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := d2.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	sameDistribution(t, dynDistribution(d2), coldDistribution(t, final), "recovered vs cold build")
}

func TestRecoveryCorruptSnapshotFallsBackToColdBuild(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Flip a bit in every snapshot file in the store.
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}
	for _, p := range snaps {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x20
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, info, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if info.Warm {
		t.Fatal("corrupt snapshot served warm")
	}
	// Degraded to a cold build — and the answers are the cold build's.
	sameDistribution(t, dynDistribution(d2), coldDistribution(t, g), "fallback vs cold build")
	// The store healed: a fresh snapshot exists again.
	if ps := d2.PersistStats(); !ps.HasSnapshot {
		t.Fatalf("store not re-seeded after fallback: %+v", ps)
	}
}

// TestRecoveryOlderFormatStartsColdOnce is the upgrade path: a data
// directory an older release wrote (snapshot and WAL both one format version
// behind) opens cold, like a first start, answers like a cold build of the
// input graph, and leaves a store whose next open is warm.
func TestRecoveryOlderFormatStartsColdOnce(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	// Mutations trip no rebuild, so both adds stay in the WAL instead of
	// being absorbed by a rebuild checkpoint.
	opts := durableOpts()
	d, _, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 30}, {5, 45}} {
		if _, err := d.AddEdge(ctx, e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	if ps := d.PersistStats(); ps.WALRecords != 2 {
		t.Fatalf("WAL holds %d records, want 2", ps.WALRecords)
	}
	d.Close()

	// Both file kinds carry their u32 format version after an 8-byte magic.
	files, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshots %v (%v), want one", files, err)
	}
	for _, p := range append(files, filepath.Join(dir, "wal.log")) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(b[8:12], persist.FormatVersion-1)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2, info, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm || info.Reason != "no snapshot" {
		t.Fatalf("open over an older format: %+v, want cold with reason \"no snapshot\"", info)
	}
	want := coldDistribution(t, g)
	sameDistribution(t, dynDistribution(d2), want, "older-format open vs cold build")
	d2.Close()

	d3, info, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if !info.Warm || info.ReplayedMutations != 0 {
		t.Fatalf("open after the upgrade: %+v, want warm with 0 replayed records", info)
	}
	sameDistribution(t, dynDistribution(d3), want, "warm open after the upgrade vs cold build")
}

func TestRecoveryRejectsChangedParamsOrGraph(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Different sketch dimension: the stored artifact answers a different
	// quality contract; recovery must not serve it.
	d2, info, err := OpenDynamicIndex(ctx, dir, g, WithEpsilon(0.3), WithDim(32), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm {
		t.Fatal("warm start across a parameter change")
	}
	d2.Close()

	// Different input graph (simulates a changed -in file).
	g2, err := RandomConnected(60, 150, 99)
	if err != nil {
		t.Fatal(err)
	}
	d3, info, err := OpenDynamicIndex(ctx, dir, g2, WithEpsilon(0.3), WithDim(32), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if info.Warm {
		t.Fatal("warm start across an input-graph change")
	}
	sameDistribution(t, dynDistribution(d3),
		func() []float64 {
			f, ferr := NewFastIndex(ctx, g2, WithEpsilon(0.3), WithDim(32), WithSeed(21))
			if ferr != nil {
				t.Fatal(ferr)
			}
			return f.Distribution()
		}(), "post-change cold build")
}

func TestSaveAndLoadSnapshot(t *testing.T) {
	g := durableGraph(t)
	ctx := context.Background()
	d, err := NewDynamicIndex(ctx, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdge(ctx, 2, 40); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := d.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	if err := d.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	want := dynDistribution(d)
	gen := d.Snapshot().Generation
	d.Close()

	// Checkpoint on a non-durable index is an error, not a silent no-op.
	if err := d.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint without data dir: %v", err)
	}

	d2, err := LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	defer d2.Close()
	if got := d2.Snapshot().Generation; got != gen {
		t.Fatalf("generation not preserved: %d vs %d", got, gen)
	}
	sameDistribution(t, dynDistribution(d2), want, "loaded snapshot")

	// The loaded index keeps serving mutations.
	if _, err := d2.AddEdge(ctx, 1, 33); err != nil {
		t.Fatalf("mutation on loaded index: %v", err)
	}

	// Conflicting build options are rejected.
	if _, err := LoadSnapshot(path, WithEpsilon(0.2)); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("want ErrSnapshotMismatch, got %v", err)
	}
	// Matching build options are fine.
	d3, err := LoadSnapshot(path, durableOpts()...)
	if err != nil {
		t.Fatalf("LoadSnapshot with matching options: %v", err)
	}
	d3.Close()
}

// A snapshot saved while mutations and queries run streams the generation
// it captured, which nothing writes once it is served, so it restores to
// that generation's answers bit for bit.
func TestSaveSnapshotWhileServing(t *testing.T) {
	ctx := context.Background()
	d, err := NewDynamicIndex(ctx, durableGraph(t), durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	served := map[uint64]*FastIndex{d.Snapshot().Generation: d.Snapshot().Index}
	mutated := make(chan struct{})
	go func() {
		defer close(mutated)
		for _, add := range []bool{true, false} {
			for _, e := range [][2]int{{2, 40}, {3, 41}, {1, 33}, {0, 30}} {
				var err error
				if add {
					_, err = d.AddEdge(ctx, e[0], e[1])
				} else {
					_, err = d.RemoveEdge(ctx, e[0], e[1])
				}
				if err != nil {
					t.Error(err)
					return
				}
				snap := d.Snapshot()
				served[snap.Generation] = snap.Index
			}
		}
	}()
	var paths []string
	for running := true; running; {
		select {
		case <-mutated:
			running = false
		default:
		}
		path := filepath.Join(t.TempDir(), "index.snap")
		if err := d.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		d.Snapshot().Index.Distribution()
	}
	for _, path := range paths {
		r, err := LoadSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		gen := r.Snapshot().Generation
		sameDistribution(t, dynDistribution(r), served[gen].Distribution(), fmt.Sprintf("snapshot of generation %d", gen))
		r.Close()
	}
}

func TestDurableCheckpointOnDemand(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()

	d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddEdge(ctx, 3, 41); err != nil {
		t.Fatal(err)
	}
	if ps := d.PersistStats(); ps.WALRecords != 1 {
		t.Fatalf("wal records before checkpoint: %+v", ps)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ps := d.PersistStats()
	if ps.WALRecords != 0 || !ps.HasSnapshot || ps.SnapshotSeq != 1 {
		t.Fatalf("post-checkpoint stats: %+v", ps)
	}
	// Idempotent while nothing changed.
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("no-op checkpoint: %v", err)
	}
	if got := d.PersistStats().Checkpoints; got != ps.Checkpoints {
		t.Fatalf("no-op checkpoint wrote a snapshot: %d vs %d", got, ps.Checkpoints)
	}
}

// TestErrorPathsCloseFiles: an OpenDynamicIndex whose WAL replay is
// cancelled closes the store it opened.
func TestErrorPathsCloseFiles(t *testing.T) {
	testutil.CheckFiles(t)
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()
	opts := durableOpts() // mutations trip no rebuild, so none absorbs the WAL
	d, _, err := OpenDynamicIndex(ctx, dir, g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled context fails a replayed mutation with probability at
	// least 1/2, so 20 WAL records make a completed replay negligible.
	for u, added := 0, 0; added < 20; u++ {
		if v := (u*7 + 31) % g.N(); u != v && !g.HasEdge(u, v) {
			if _, err := d.AddEdge(ctx, u, v); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if ps := d.PersistStats(); !ps.HasSnapshot || ps.WALRecords != 20 {
		t.Fatalf("want a snapshot and 20 WAL records to replay, got %+v", ps)
	}
	d.Close()
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := OpenDynamicIndex(cctx, dir, g, opts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay: %v, want context.Canceled", err)
	}
}

// TestWarmStartReplicasConverge: a warm start replays its WAL with no
// rebuild, removals included, and checkpoints the replayed position before
// OpenDynamicIndex returns, so the store holds the served state and a
// follower built from the writer's snapshot and WAL tail answers exactly
// like the writer. Each case is named for the place in the replay where a
// rebuild must not happen: a removal mid-replay, and one as the last
// record.
func TestWarmStartReplicasConverge(t *testing.T) {
	type mut struct {
		add  bool
		u, v int
	}
	cases := []struct {
		name string
		muts []mut
	}{
		{"rebuild mid-replay", []mut{{true, 0, 30}, {false, 0, 30}, {true, 5, 45}}},
		{"rebuild at the last record", []mut{{true, 0, 30}, {false, 0, 30}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			g := durableGraph(t)
			ctx := context.Background()
			d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			for _, mu := range tc.muts {
				if mu.add {
					_, err = d.AddEdge(ctx, mu.u, mu.v)
				} else {
					_, err = d.RemoveEdge(ctx, mu.u, mu.v)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if ps := d.PersistStats(); ps.WALRecords != len(tc.muts) {
				t.Fatalf("WAL holds %d records, want %d", ps.WALRecords, len(tc.muts))
			}
			d.Close()

			w, info, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			// Read everything before any wait: OpenDynamicIndex must
			// return with the replay absorbed and checkpointed.
			ps, seq, gen, rebuilds := w.PersistStats(), w.Seq(), w.Snapshot().Generation, w.Stats().Rebuilds
			if !info.Warm || info.ReplayedMutations != len(tc.muts) {
				t.Fatalf("reopen: %+v, want warm with %d replayed records", info, len(tc.muts))
			}
			if info.Generation != gen {
				t.Fatalf("RecoveryInfo.Generation %d, served generation %d", info.Generation, gen)
			}
			if rebuilds != 0 || gen != 1+uint64(len(tc.muts)) {
				t.Fatalf("%d rebuilds, generation %d after replaying %d records; want no rebuild and one generation per record",
					rebuilds, gen, len(tc.muts))
			}
			if ps.SnapshotSeq != seq || ps.SnapshotGeneration != gen || ps.WALRecords != 0 {
				t.Fatalf("store holds snapshot seq %d gen %d and %d WAL records; writer serves seq %d gen %d",
					ps.SnapshotSeq, ps.SnapshotGeneration, ps.WALRecords, seq, gen)
			}

			sameAsFollower(t, w)
		})
	}
}

// sameAsFollower builds a follower from w's store the way a replica does,
// restoring the newest snapshot and applying the WAL tail after it, and
// fails t unless it reaches w's sequence and generation and answers
// Distribution bit for bit like w.
func sameAsFollower(t *testing.T, w *DynamicIndex) {
	t.Helper()
	ctx := context.Background()
	st := w.ReplicationStore()
	raw, snapSeq, _, err := st.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	tail, err := st.TailSince(snapSeq+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := LoadSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, r := range tail.Records {
		if r.Add {
			_, err = f.AddEdge(ctx, r.U, r.V)
		} else {
			_, err = f.RemoveEdge(ctx, r.U, r.V)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	seq, gen := w.Seq(), w.Snapshot().Generation
	if f.Seq() != seq || f.Snapshot().Generation != gen {
		t.Fatalf("follower at seq %d gen %d, writer at seq %d gen %d", f.Seq(), f.Snapshot().Generation, seq, gen)
	}
	sameDistribution(t, dynDistribution(f), dynDistribution(w), "follower vs writer")
}

// plantDir makes path a non-empty directory, so that renaming a snapshot
// onto it fails and removing it takes os.RemoveAll.
func plantDir(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRefusedRebuildKeepsReplicasConverged: a rebuild whose checkpoint
// fails publishes nothing, so the writer keeps serving what its store
// holds and a follower built from that store still answers exactly like
// it; once the disk heals, the next rebuild publishes and is checkpointed.
func TestRefusedRebuildKeepsReplicasConverged(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()
	d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddEdge(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	blocked := filepath.Join(dir, "snapshot-0000000000000001.snap")
	plantDir(t, blocked)
	if _, err := d.RebuildAndWait(ctx); err == nil {
		t.Fatal("a rebuild whose checkpoint cannot land succeeded")
	}
	st, ps := d.Stats(), d.PersistStats()
	if d.Seq() != 1 || st.Generation != 2 || st.Rebuilds != 0 || st.RebuildFailures != 1 ||
		ps.JournalFailures != 1 || ps.CheckpointFailures != 1 {
		t.Fatalf("after the refused rebuild: seq %d, %+v, %+v; want seq 1 gen 2 and one failure of each kind", d.Seq(), st, ps)
	}
	sameAsFollower(t, d)

	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RebuildAndWait(ctx); err != nil {
		t.Fatal(err)
	}
	if ps := d.PersistStats(); ps.SnapshotSeq != 1 || ps.SnapshotGeneration != 3 || ps.WALRecords != 0 ||
		d.Snapshot().Generation != 3 {
		t.Fatalf("after the healed rebuild: serving gen %d, %+v; want snapshot seq 1 gen 3 and no WAL records",
			d.Snapshot().Generation, ps)
	}
	sameAsFollower(t, d)
}

// TestCheckpointWaitsForTrippedRebuild: a Checkpoint issued right after
// TriggerRebuild runs behind that rebuild, so it returns with the rebuilt
// generation served and on disk, and writes nothing of its own. Each run
// adds an edge, removes it, and requests the rebuild.
func TestCheckpointWaitsForTrippedRebuild(t *testing.T) {
	g := durableGraph(t)
	ctx := context.Background()
	d, _, err := OpenDynamicIndex(ctx, t.TempDir(), g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	added := map[[2]int]bool{}
	for u, runs := 0, 0; runs < 40; u++ {
		v := (u*7 + 31) % g.N()
		if u == v || g.HasEdge(u, v) || added[[2]int{v, u}] {
			continue
		}
		added[[2]int{u, v}] = true
		runs++
		if _, err := d.AddEdge(ctx, u, v); err != nil {
			t.Fatal(err)
		}
		before := d.PersistStats().Checkpoints
		res, err := d.RemoveEdge(ctx, u, v)
		if err != nil {
			t.Fatal(err)
		}
		d.TriggerRebuild()
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("run %d: %v", runs, err)
		}
		ps, gen := d.PersistStats(), d.Snapshot().Generation
		if gen != res.Generation+1 || ps.SnapshotGeneration != gen || ps.Checkpoints != before+1 {
			t.Fatalf("run %d: removal answered at generation %d; Checkpoint returned with generation %d served, %d on disk and %d checkpoints written, want %d, %d and 1",
				runs, res.Generation, gen, ps.SnapshotGeneration, ps.Checkpoints-before, res.Generation+1, res.Generation+1)
		}
	}
}

// TestExactUpdatesSurviveRestore: a checkpoint carries the projection the
// writer's exact updates extended, so a warm restart and a follower
// restored from the snapshot bytes draw and remove the same columns as the
// writer. After two adds and a removal, an on-demand checkpoint, then one
// more add and the removal of a build-time edge on all three, each restore
// answers bit for bit as the writer does.
func TestExactUpdatesSurviveRestore(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()
	w, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	mutate := func(d *DynamicIndex, add bool, u, v int) {
		t.Helper()
		gen := d.Snapshot().Generation
		var res MutationResult
		if add {
			res, err = d.AddEdge(ctx, u, v)
		} else {
			res, err = d.RemoveEdge(ctx, u, v)
		}
		if err != nil || res.Generation != gen+1 || d.Stats().Rebuilds != 0 {
			t.Fatalf("mutation (%d,%d) at generation %d: %+v, %v; want generation %d and no rebuild", u, v, gen, res, err, gen+1)
		}
	}
	mutate(w, true, 0, 30)
	mutate(w, true, 5, 45)
	mutate(w, false, 0, 30)
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	warmDir := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(warmDir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	warm, rec, err := OpenDynamicIndex(ctx, warmDir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !rec.Warm || rec.ReplayedMutations != 0 {
		t.Fatalf("restart: %+v, want a warm start with nothing to replay", rec)
	}
	raw, _, _, err := w.ReplicationStore().SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := LoadSnapshotBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	built := g.Edges()[17] // a build-time edge whose removal keeps g connected
	for _, d := range []*DynamicIndex{w, warm, follower} {
		mutate(d, true, 2, 50)
		mutate(d, false, built[0], built[1])
	}
	want := dynDistribution(w)
	for name, d := range map[string]*DynamicIndex{"warm restart": warm, "follower": follower} {
		if d.Seq() != w.Seq() || d.Snapshot().Generation != w.Snapshot().Generation {
			t.Fatalf("%s at seq %d gen %d, writer at seq %d gen %d",
				name, d.Seq(), d.Snapshot().Generation, w.Seq(), w.Snapshot().Generation)
		}
		sameDistribution(t, dynDistribution(d), want, name+" vs writer")
		for u := 0; u < g.N(); u += 7 {
			for v := u + 1; v < g.N(); v += 5 {
				got, exp := d.Snapshot().Index.Resistance(u, v), w.Snapshot().Index.Resistance(u, v)
				if got != exp {
					t.Fatalf("%s: resistance (%d,%d) = %g, writer %g", name, u, v, got, exp)
				}
			}
		}
	}
}

// TestCheckpointAfterClose: Checkpoint on a closed index fails with
// ErrIndexClosed and writes nothing, although the served state is ahead of
// the store.
func TestCheckpointAfterClose(t *testing.T) {
	dir := t.TempDir()
	g := durableGraph(t)
	ctx := context.Background()
	d, _, err := OpenDynamicIndex(ctx, dir, g, durableOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddEdge(ctx, 0, 30); err != nil {
		t.Fatal(err)
	}
	d.Close()
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrIndexClosed) {
		t.Fatalf("Checkpoint after Close: %v, want ErrIndexClosed", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("Checkpoint after Close changed the data directory: %v, was %v", after, before)
	}
}

// TestColdOpenFailsWhenInitialCheckpointFails: a cold start whose first
// checkpoint cannot land fails the open, instead of serving a state no
// restart could reproduce, and closes what it opened.
func TestColdOpenFailsWhenInitialCheckpointFails(t *testing.T) {
	testutil.CheckFiles(t)
	dir := t.TempDir()
	plantDir(t, filepath.Join(dir, "snapshot-0000000000000000.snap"))
	d, _, err := OpenDynamicIndex(context.Background(), dir, durableGraph(t), durableOpts()...)
	if err == nil {
		d.Close()
		t.Fatal("OpenDynamicIndex succeeded without its initial checkpoint")
	}
}
