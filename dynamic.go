package resistecc

import (
	"context"

	"resistecc/internal/lifecycle"
	"resistecc/internal/persist"
)

// ErrIndexClosed is returned by DynamicIndex mutations and Checkpoint
// issued after Close.
var ErrIndexClosed = lifecycle.ErrClosed

// MutationResult describes the outcome of one accepted mutation.
type MutationResult struct {
	// Generation is the generation the mutation published: the sketch of
	// the new graph, moved there by its exact Sherman–Morrison update.
	Generation uint64
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
	Rebuilds           uint64
	RebuildFailures    uint64
	RebuildInProgress  bool
	LastRebuildSeconds float64
	// N and M are the node and edge counts of the current graph, which the
	// served index always reflects.
	N, M int
}

// DynamicIndex is a FastIndex that accepts online edge mutations. Queries
// always hit a complete immutable snapshot (RCU: no locks on the read path);
// AddEdge/RemoveEdge apply cheap, exact incremental sketch updates: each
// publishes the sketch of the new graph under the sketch's updated
// projection, for every edit that keeps the graph connected. A mutation
// whose update fails is refused and changes nothing. A full rebuild runs
// only on request (TriggerRebuild, RebuildAndWait): reads continue on the
// published generation meanwhile, and later mutations queue behind it. A
// rebuilt index serves exactly what a cold NewFastIndex of the current
// graph would.
//
// Build one with NewDynamicIndex; WithEpsilon is required.
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
	m, err := lifecycle.New(ctx, g.inner(), lifecycleConfig(params))
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
// ErrNodeOutOfRange, ErrSelfLoop or ErrDuplicateEdge, and a failed update
// with its error; ctx bounds the time spent waiting on the mutation queue.
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
	return MutationResult{Generation: r.Gen}, nil
}

// TriggerRebuild queues a full rebuild behind the mutations already
// queued, and returns without waiting for it (it waits only for queue
// space). Each call queues one build.
func (d *DynamicIndex) TriggerRebuild() { d.m.TriggerRebuild() }

// RebuildAndWait queues a rebuild and blocks until it has finished,
// returning the generation that was serving when the rebuild was requested
// and the build's error if it failed. Trace replay uses it to absorb a
// recorded rebuild before the next operation runs.
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

// WaitIdle blocks until every mutation and rebuild queued before it has
// finished.
func (d *DynamicIndex) WaitIdle(ctx context.Context) error { return d.m.WaitIdle(ctx) }

// Stats reports the lifecycle state for health and metrics endpoints.
func (d *DynamicIndex) Stats() DynamicStats {
	s := d.m.Stats()
	return DynamicStats{
		Generation:         s.Generation,
		QueueDepth:         s.QueueDepth,
		Updates:            s.Updates,
		Rebuilds:           s.Rebuilds,
		RebuildFailures:    s.RebuildFailures,
		RebuildInProgress:  s.RebuildInProgress,
		LastRebuildSeconds: s.LastRebuildSeconds,
		N:                  s.N,
		M:                  s.M,
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
