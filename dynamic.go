package resistecc

import (
	"context"

	"resistecc/internal/lifecycle"
	"resistecc/internal/persist"
)

// ErrIndexClosed is returned by DynamicIndex mutations and Checkpoint
// issued after Close.
var ErrIndexClosed = lifecycle.ErrClosed

// MutationMode reports how a DynamicIndex mutation reached the served index.
type MutationMode string

const (
	// MutationIncremental: the sketch was moved to the new graph by its
	// exact Sherman–Morrison update and a new generation published
	// immediately.
	MutationIncremental MutationMode = MutationMode(lifecycle.ModeIncremental)
	// MutationStale: the mutation landed on the master graph but the served
	// index could not absorb it incrementally; answers lag until the
	// rebuild it trips swaps in.
	MutationStale MutationMode = MutationMode(lifecycle.ModeStale)
)

// MutationResult describes the outcome of one accepted mutation.
type MutationResult struct {
	// Generation serving the mutation (unchanged for MutationStale).
	Generation uint64
	// Mode is MutationIncremental or MutationStale.
	Mode MutationMode
	// RebuildScheduled reports whether this mutation tripped a rebuild,
	// which runs before the next mutation is applied.
	RebuildScheduled bool
}

// IndexSnapshot is one immutable generation of a DynamicIndex: a FastIndex
// plus the generation number and the graph shape it reflects. Snapshots
// remain valid (and answer queries) forever, even after newer generations
// swap in or the DynamicIndex is closed.
type IndexSnapshot struct {
	// Generation is the monotonically increasing index version.
	Generation uint64
	// Index answers queries for this generation.
	Index *FastIndex
	// N and M are the node and edge counts this generation reflects.
	N, M int
}

// DynamicStats is a point-in-time view of a DynamicIndex for health checks
// and metrics.
type DynamicStats struct {
	Generation         uint64
	QueueDepth         int
	Updates            int
	Deletions          int
	Stale              bool
	Rebuilds           uint64
	RebuildFailures    uint64
	RebuildInProgress  bool
	LastRebuildSeconds float64
	GraphN, GraphM     int
	IndexN, IndexM     int
}

// DynamicIndex is a FastIndex that accepts online edge mutations. Queries
// always hit a complete immutable snapshot (RCU: no locks on the read path);
// AddEdge/RemoveEdge apply cheap, exact incremental sketch updates when
// safe: each publishes the sketch of the new graph under the sketch's
// updated projection. A mutation the update cannot absorb (a near-bridge
// removal), or one that takes the deletion count to its limit, is answered
// first, and a full rebuild then runs before the next mutation: reads
// continue on the published generation meanwhile, and later mutations
// queue behind it. A rebuilt index serves exactly what a cold NewFastIndex
// of the current graph would.
//
// Build one with NewDynamicIndex; WithEpsilon is required, and
// WithMaxDeletions / WithMutationQueue tune the rebuild policy.
type DynamicIndex struct {
	m *lifecycle.Manager

	// Persistence state (see durable.go). params/baseFP identify what this
	// index serves; store is non-nil only for OpenDynamicIndex indexes.
	params persist.Params
	baseFP uint64
	store  *persist.Store
}

// NewDynamicIndex builds the initial index (generation 1) from g and starts
// the worker that applies mutations and rebuilds. The graph must be
// connected (ErrDisconnected otherwise); g is cloned, so later changes to it
// do not affect the index. ctx bounds the initial build; Close stops the
// worker and cancels a rebuild in flight.
func NewDynamicIndex(ctx context.Context, g *Graph, opts ...Option) (*DynamicIndex, error) {
	c := applyOptions(opts)
	params := paramsOf(c)
	m, err := lifecycle.New(ctx, g.inner(), lifecycleConfig(params, c))
	if err != nil {
		return nil, err
	}
	return &DynamicIndex{m: m, params: params, baseFP: persist.Fingerprint(g.inner())}, nil
}

// Snapshot returns the current served generation. The result is immutable;
// hold it across related queries for a consistent view.
func (d *DynamicIndex) Snapshot() *IndexSnapshot {
	s := d.m.Current()
	return &IndexSnapshot{
		Generation: s.Gen,
		Index:      &FastIndex{sketchIndex{s.Fast}},
		N:          s.N,
		M:          s.M,
	}
}

// AddEdge inserts the undirected edge (u, v). Rejected inputs surface as
// ErrNodeOutOfRange, ErrSelfLoop or ErrDuplicateEdge; ctx bounds the time
// spent waiting on the mutation queue.
func (d *DynamicIndex) AddEdge(ctx context.Context, u, v int) (MutationResult, error) {
	return convMutation(d.m.AddEdge(ctx, u, v))
}

// RemoveEdge deletes the undirected edge (u, v). A removal that would
// disconnect the graph is rejected with ErrDisconnected (resistance
// eccentricity is undefined across components); a missing edge is
// ErrEdgeNotFound.
func (d *DynamicIndex) RemoveEdge(ctx context.Context, u, v int) (MutationResult, error) {
	return convMutation(d.m.RemoveEdge(ctx, u, v))
}

func convMutation(r lifecycle.ApplyResult, err error) (MutationResult, error) {
	if err != nil {
		return MutationResult{}, err
	}
	return MutationResult{
		Generation:       r.Gen,
		Mode:             MutationMode(r.Mode),
		RebuildScheduled: r.RebuildScheduled,
	}, nil
}

// TriggerRebuild queues a full rebuild behind the mutations already
// queued, and returns without waiting for it (it waits only for queue
// space). Each call queues one build. A no-op on follower indexes
// (WithFollower), which never rebuild locally.
func (d *DynamicIndex) TriggerRebuild() { d.m.TriggerRebuild() }

// RebuildAndWait queues a rebuild and blocks until it has finished,
// returning the generation that was serving when the rebuild was requested
// and the build's error if it failed. Trace replay uses it to absorb a
// recorded rebuild before the next operation runs. On a follower index it
// only waits for the queued mutations.
func (d *DynamicIndex) RebuildAndWait(ctx context.Context) (uint64, error) {
	return d.m.RebuildAndWait(ctx)
}

// Seq returns the number of mutations applied since the index's base state
// (zero for a fresh build, the snapshot's sequence plus applied mutations
// for a restored one). Replication uses it as the WAL tailing position.
func (d *DynamicIndex) Seq() uint64 { return d.m.Seq() }

// ReplicationStore exposes the durable store backing this index to the
// in-process replication layer (internal/repl serves snapshot and WAL-tail
// fetches over it); nil when the index has no data directory. TailSince and
// SnapshotBytes on the returned store are safe for concurrent use with
// serving and mutations.
func (d *DynamicIndex) ReplicationStore() *persist.Store { return d.store }

// WaitIdle blocks until every mutation queued before it has been applied
// and every rebuild queued or tripped before it has finished. Unless a
// rebuild failed, the served index then reflects the current graph.
func (d *DynamicIndex) WaitIdle(ctx context.Context) error { return d.m.WaitIdle(ctx) }

// Stats reports the lifecycle state for health and metrics endpoints.
func (d *DynamicIndex) Stats() DynamicStats {
	s := d.m.Stats()
	return DynamicStats{
		Generation:         s.Generation,
		QueueDepth:         s.QueueDepth,
		Updates:            s.Updates,
		Deletions:          s.Deletions,
		Stale:              s.Stale,
		Rebuilds:           s.Rebuilds,
		RebuildFailures:    s.RebuildFailures,
		RebuildInProgress:  s.RebuildInProgress,
		LastRebuildSeconds: s.LastRebuildSeconds,
		GraphN:             s.GraphN,
		GraphM:             s.GraphM,
		IndexN:             s.IndexN,
		IndexM:             s.IndexM,
	}
}

// Close stops the workers and rejects further mutations with ErrIndexClosed.
// Existing snapshots keep answering queries. For a durable index
// (OpenDynamicIndex) the store is closed too; Close does not checkpoint —
// unsnapshotted mutations are already safe in the WAL.
func (d *DynamicIndex) Close() {
	d.m.Close()
	if d.store != nil {
		d.store.Close()
	}
}
