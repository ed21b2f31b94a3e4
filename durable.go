package resistecc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"resistecc/internal/graph"
	"resistecc/internal/lifecycle"
	"resistecc/internal/persist"
)

// ErrSnapshotMismatch is returned by LoadSnapshot when explicitly supplied
// build options conflict with the parameters stored in the snapshot.
var ErrSnapshotMismatch = persist.ErrMismatch

// ErrNotDurable is returned by Checkpoint and PersistStats accessors on an
// index that was built without a data directory (NewDynamicIndex or
// LoadSnapshot instead of OpenDynamicIndex).
var ErrNotDurable = errors.New("resistecc: index has no data directory (use OpenDynamicIndex)")

// paramsOf extracts the content-determining build parameters from an
// applied option set.
func paramsOf(c buildConfig) persist.Params {
	return persist.Params{
		Epsilon:         c.sk.Epsilon,
		Dim:             c.sk.Dim,
		Seed:            c.sk.Seed,
		HullMaxVertices: c.hull.MaxVertices,
	}
}

// lifecycleConfig assembles the manager config from stored build params.
func lifecycleConfig(p persist.Params) lifecycle.Config {
	return lifecycle.Config{Sketch: p.SketchOptions(), Hull: p.HullOptions()}
}

// SaveSnapshot writes the current index state — graph, sketch matrix and
// hull boundary, each section checksummed — to a single file, atomically
// (temp file + fsync + rename). The file holds exactly what LoadSnapshot
// reads, and the saved index answers bit-identically after it. It does not
// wait for queued mutations: it saves the generation served when it is
// called.
func (d *DynamicIndex) SaveSnapshot(path string) error {
	return persist.WriteSnapshotFile(path, persist.Capture(d.m.CheckpointState(), d.params, d.baseFP))
}

// LoadSnapshot rebuilds a DynamicIndex from a SaveSnapshot file without any
// solver work: the stored sketch matrix is restored bit-exactly, so queries
// answer identically to the index that was saved. The restored generation
// starts with an empty answer table, which fills as queries arrive. Build
// parameters come from the snapshot itself; options, when given, must
// match the stored ones (ErrSnapshotMismatch otherwise).
// Corrupt files fail with persist errors, and files written by another
// format version (an older release's included) with persist.ErrVersion —
// callers wanting automatic cold-build fallback use OpenDynamicIndex.
func LoadSnapshot(path string, opts ...Option) (*DynamicIndex, error) {
	snap, err := persist.ReadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	return loadSnapshot(snap, opts)
}

// LoadSnapshotBytes is LoadSnapshot over an in-memory encoding — the form a
// replication replica receives from the writer's snapshot endpoint. The
// restored index rebuilds only on request, so applying the writer's WAL
// records keeps it bit-identical to the writer it tails.
func LoadSnapshotBytes(b []byte, opts ...Option) (*DynamicIndex, error) {
	snap, err := persist.ReadSnapshot(b)
	if err != nil {
		return nil, err
	}
	return loadSnapshot(snap, opts)
}

func loadSnapshot(snap *persist.Snapshot, opts []Option) (*DynamicIndex, error) {
	c := applyOptions(opts)
	if (c.sk != (SketchOptions{}) || c.hull != (HullOptions{})) && paramsOf(c) != snap.Params {
		return nil, fmt.Errorf("%w: stored eps=%g dim=%d seed=%d",
			ErrSnapshotMismatch, snap.Params.Epsilon, snap.Params.Dim, snap.Params.Seed)
	}
	fast, _ := snap.Index()
	m, err := lifecycle.NewFromState(snap.Graph, fast,
		lifecycle.Restored{Gen: snap.Gen, Seq: snap.Seq}, lifecycleConfig(snap.Params))
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{m: m, params: snap.Params, baseFP: snap.BaseFP}, nil
}

// RecoveryInfo reports how OpenDynamicIndex started.
type RecoveryInfo struct {
	// Warm is true when the index was restored from a snapshot; false means
	// a cold build ran (first start, or fallback — see Reason).
	Warm bool
	// Reason explains a cold start ("no snapshot", "snapshot mismatch: …",
	// "replay failed: …"); empty for a warm start.
	Reason string
	// Generation is the served generation after recovery, after the WAL
	// replay.
	Generation uint64
	// ReplayedMutations counts WAL records applied on top of the snapshot.
	ReplayedMutations int
}

// OpenDynamicIndex is NewDynamicIndex with durability: index state lives in
// dataDir as a checksummed snapshot plus a mutation WAL.
//
// On startup it loads the newest valid snapshot, verifies it matches g and
// the build options (fingerprint + parameters), restores the index without
// solver work, and replays WAL records through the ordinary mutation path —
// landing exactly where a live server that ran those mutations would. Any
// corruption, torn write, version or parameter mismatch falls back to a
// cold build (never to wrong answers) and resets the store. Before it
// returns, it checkpoints whatever state the store does not hold yet: the
// cold build, or what a replayed WAL reached; if that checkpoint fails, so
// does the open. From then on every committed mutation is appended to the
// WAL before it is acknowledged, and every rebuild checkpoints a fresh
// snapshot and truncates the log before it is served. Mutations alone
// never checkpoint: pair with (*DynamicIndex).Checkpoint for time-based
// checkpoints.
//
// g must be the same input graph across restarts (reccd passes the LCC of
// its -in file); if it changes, the stale persisted state is discarded.
func OpenDynamicIndex(ctx context.Context, dataDir string, g *Graph, opts ...Option) (*DynamicIndex, RecoveryInfo, error) {
	c := applyOptions(opts)
	params := paramsOf(c)
	baseFP := persist.Fingerprint(g.inner())
	cfg := lifecycleConfig(params)

	st, err := persist.Open(dataDir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	d, info, err := openRecover(ctx, st, g.inner(), params, baseFP, cfg)
	if err != nil {
		st.Close()
		return nil, RecoveryInfo{}, err
	}
	// Attaching queues behind the replay. A failed checkpoint there fails
	// the open: the index would serve a state its store cannot reproduce.
	if err := d.m.AttachJournal(ctx, &persist.Hook{Store: st, Params: params, BaseFP: baseFP}); err != nil {
		d.Close()
		return nil, RecoveryInfo{}, err
	}
	info.Generation = d.m.Current().Gen
	return d, info, nil
}

// openRecover attempts the warm path and falls back to a cold build. The
// journal is NOT yet attached: replayed mutations must not be re-logged.
func openRecover(ctx context.Context, st *persist.Store, g *graph.Graph, params persist.Params, baseFP uint64, cfg lifecycle.Config) (*DynamicIndex, RecoveryInfo, error) {
	cold := func(reason string) (*DynamicIndex, RecoveryInfo, error) {
		m, err := lifecycle.New(ctx, g, cfg)
		if err != nil {
			return nil, RecoveryInfo{}, err
		}
		// New lineage: wipe whatever the fallback rejected. A store that
		// cannot be wiped would keep the rejected WAL on top of the new
		// snapshot, so it fails the open.
		if err := st.Reset(); err != nil {
			m.Close()
			return nil, RecoveryInfo{}, fmt.Errorf("resistecc: reset store for a cold start (%s): %w", reason, err)
		}
		return &DynamicIndex{m: m, params: params, baseFP: baseFP, store: st}, RecoveryInfo{Warm: false, Reason: reason}, nil
	}

	snap, recs, err := st.Recover()
	if err != nil {
		return cold(fmt.Sprintf("store unreadable: %v", err))
	}
	if snap == nil {
		return cold("no snapshot")
	}
	if snap.Params != params {
		return cold("snapshot mismatch: build parameters differ")
	}
	if snap.BaseFP != baseFP {
		return cold("snapshot mismatch: input graph changed")
	}
	fast, _ := snap.Index()
	m, err := lifecycle.NewFromState(snap.Graph, fast,
		lifecycle.Restored{Gen: snap.Gen, Seq: snap.Seq}, cfg)
	if err != nil {
		return cold(fmt.Sprintf("snapshot unusable: %v", err))
	}
	// Replay the log through the live mutation path: each record gets the
	// same exact update it got originally, and surprises (a record that no
	// longer applies, a failed update) abandon the warm start.
	for i, r := range recs {
		var merr error
		if r.Add {
			_, merr = m.AddEdge(ctx, r.U, r.V)
		} else {
			_, merr = m.RemoveEdge(ctx, r.U, r.V)
		}
		if merr != nil {
			m.Close()
			if ctx.Err() != nil {
				return nil, RecoveryInfo{}, ctx.Err()
			}
			return cold(fmt.Sprintf("replay failed at record %d/%d: %v", i+1, len(recs), merr))
		}
	}
	d := &DynamicIndex{m: m, params: params, baseFP: baseFP, store: st}
	return d, RecoveryInfo{Warm: true, ReplayedMutations: len(recs)}, nil
}

// Checkpoint snapshots the served state into the data directory, absorbing
// and truncating the WAL. It queues behind pending mutations and rebuilds,
// and writes nothing when the store already holds the served sequence and
// generation. Fails with ErrNotDurable on a non-durable index, with the
// store's error, and with ErrIndexClosed after Close.
func (d *DynamicIndex) Checkpoint() error {
	if d.store == nil {
		return ErrNotDurable
	}
	return d.m.Checkpoint()
}

// PersistStats is a point-in-time view of the durability subsystem.
type PersistStats struct {
	// Durable reports whether the index has a data directory at all; every
	// other field is zero when it does not.
	Durable bool
	// HasSnapshot / SnapshotSeq / SnapshotGeneration / SnapshotAgeSeconds
	// describe the newest on-disk snapshot.
	HasSnapshot        bool
	SnapshotSeq        uint64
	SnapshotGeneration uint64
	SnapshotAgeSeconds float64
	// WALRecords counts mutations logged since that snapshot.
	WALRecords int
	// Checkpoints / CheckpointFailures count snapshot writes; JournalFailures
	// counts WAL appends or checkpoints the lifecycle journal could not
	// complete (non-zero means durability is degraded, serving is not).
	Checkpoints           uint64
	CheckpointFailures    uint64
	JournalFailures       uint64
	LastCheckpointSeconds float64
}

// PersistStats reports durability gauges for health and metrics endpoints.
func (d *DynamicIndex) PersistStats() PersistStats {
	if d.store == nil {
		return PersistStats{}
	}
	st := d.store.Stats()
	ps := PersistStats{
		Durable:               true,
		HasSnapshot:           st.HasSnapshot,
		SnapshotSeq:           st.SnapshotSeq,
		SnapshotGeneration:    st.SnapshotGen,
		WALRecords:            st.WALRecords,
		Checkpoints:           st.Checkpoints,
		CheckpointFailures:    st.CheckpointFailures,
		JournalFailures:       d.m.Stats().JournalFailures,
		LastCheckpointSeconds: st.LastCheckpointDur.Seconds(),
	}
	if st.HasSnapshot {
		ps.SnapshotAgeSeconds = time.Since(st.SnapshotTime).Seconds()
	}
	return ps
}
