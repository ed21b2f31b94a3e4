// Package lifecycle owns the dynamic-serving core of the repository: a
// generation-numbered FASTQUERY index behind an RCU-style atomic pointer and
// one worker goroutine that drains a FIFO of ops. An op is an edge add or
// removal (AddEdge/RemoveEdge), which applies the sketch's exact
// Sherman–Morrison update in place of a full rebuild; a rebuild request; a
// checkpoint (Checkpoint, and AttachJournal, which registers the journal
// first); or a WaitIdle barrier. A mutation the update cannot absorb, or
// one that takes the deletion count to its limit, is answered first, and
// the worker then re-sketches from scratch before it takes the next op.
//
// The paper's optimization half (§VI–VII) is all about changing the graph —
// FARMINRECC/MINRECC add edges and re-score — while FASTQUERY's index is a
// build-once artifact. This package closes that gap for serving: mutations
// land without downtime, queries always hit a complete immutable snapshot
// (never a half-updated one), and the generation number lets clients observe
// index progression (reccd surfaces it as X-Index-Generation).
//
// Consistency model:
//
//   - The worker is the only writer of lifecycle state. It publishes one
//     immutable state through an atomic pointer: the served Snapshot, the
//     master graph, the mutation sequence and the counters Stats reports.
//     Readers (Current, Stats, Seq, CheckpointState) load it once and take
//     no lock. Nothing modifies a published state, its graph included: a
//     mutation builds the next master graph from a clone.
//   - Ops run one at a time, in arrival order. Each successful incremental
//     mutation publishes a new snapshot with Gen+1. A mutation whose
//     embedding update is unsafe (bridge-like removal, solver failure) is
//     still applied to the master graph but leaves the served index stale
//     and trips a rebuild ("stale" mode).
//   - A rebuild re-sketches the master graph with the original options
//     (same seeds), so it serves exactly what a cold build of the current
//     graph would. It runs on the worker, so no mutation can overtake it:
//     reads continue on the published generation, and mutations queue
//     behind it. With a journal attached, the rebuilt cut is checkpointed
//     before it is published, so the writer never serves a generation its
//     store cannot reproduce; a failed checkpoint fails the rebuild.
//   - The worker is the journal's only checkpoint writer, and every
//     checkpoint (attach, rebuild, on demand) follows one rule: skip when
//     the journal already holds the served (sequence, generation).
//   - An incremental generation is the sketch of the master graph under
//     the updated projection (internal/sketch/update.go), so it carries the
//     same (1±ε) bound as a cold build, though not a cold build's bits.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/sketch"
)

// ErrClosed is returned by mutations and checkpoints issued after Close.
var ErrClosed = errors.New("lifecycle: manager closed")

// ErrStale is returned while the served index lags the master graph, so
// there is no consistent cut to persist: by CheckpointState while a rebuild
// is pending or after the last one failed, and by Checkpoint, which waits
// for pending rebuilds, only after a failed one. Rebuild and retry.
var ErrStale = errors.New("lifecycle: index is stale; rebuild pending")

// Journal observes committed state for durability (internal/persist wires a
// WAL + snapshot store through it). Both methods run on the worker, the
// journal's only caller. AppendMutation runs after each mutation is applied
// and before it is published, with the post-mutation sequence number; a
// failure is counted in Stats.JournalFailures and the mutation still lands.
// Checkpoint gets a cut that exactly reflects its Seq, from the checkpoint
// op (Checkpoint, AttachJournal) and from every rebuild before its publish;
// a failure fails that op or rebuild. Neither touches the lock-free query
// path, but both hold up the next op, so implementations should not dawdle
// (an appended WAL record, one snapshot write).
type Journal interface {
	AppendMutation(seq uint64, add bool, u, v int) error
	Checkpoint(cs CheckpointState) error
}

// CheckpointState is a consistent cut of a manager: Graph is the master
// graph after exactly Seq mutations and Fast is the index reflecting that
// same graph. Both are the published ones, shared and read-only: the
// manager never modifies them, and receivers must not either.
type CheckpointState struct {
	Seq   uint64
	Gen   uint64
	Graph *graph.Graph
	Fast  *ecc.Fast
}

// Config configures a Manager. Sketch.Epsilon is required.
type Config struct {
	// Sketch configures APPROXER for the initial build, every full rebuild,
	// and the per-update Laplacian solves.
	Sketch sketch.Options
	// Hull configures APPROXCH; zero Theta means ε/12 as in FASTQUERY.
	Hull hull.Options
	// MaxDeletions schedules a rebuild after this many edge removals since
	// the last full build. Zero means 16.
	MaxDeletions int
	// QueueSize is the op queue capacity; enqueueing blocks (with the
	// caller's context as the way out) when full. Zero means 64.
	QueueSize int
	// Follower disables local rebuilds: the manager's state then changes
	// only through applied mutations, so it is a pure deterministic function
	// of the base state (a restored snapshot) and the mutation sequence.
	// Replication replicas rely on this for bit-identical convergence with
	// the writer — a local rebuild would diverge. A follower that goes stale
	// stays stale until its owner swaps in a fresh base (re-fetching the
	// writer's snapshot), and a rebuild request on it is only a barrier.
	Follower bool
}

func (c Config) withDefaults() Config {
	if c.MaxDeletions <= 0 {
		c.MaxDeletions = 16
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	return c
}

// Snapshot is one immutable generation of the served index. N and M describe
// the graph this index reflects (for stale generations they lag the master
// graph until the rebuild lands).
type Snapshot struct {
	Gen  uint64
	Fast *ecc.Fast
	N, M int
}

// Mode reports how a mutation reached the served index.
type Mode string

const (
	// ModeIncremental: the embedding was updated in O(solve + n·d) and a new
	// generation was published immediately.
	ModeIncremental Mode = "incremental"
	// ModeStale: the mutation was applied to the master graph but the served
	// index does not reflect it — the incremental update was unavailable
	// (bridge-like removal, solver failure) or skipped because the index was
	// already stale. The index stays stale until a rebuild swaps in.
	ModeStale Mode = "stale"
)

// ApplyResult describes the outcome of one accepted mutation.
type ApplyResult struct {
	// Gen is the generation serving the mutation (unchanged for ModeStale).
	Gen uint64
	// Mode is ModeIncremental or ModeStale.
	Mode Mode
	// RebuildScheduled reports whether this mutation tripped the rebuild
	// trigger: the worker rebuilds before it takes the next op.
	RebuildScheduled bool
}

// Stats is a point-in-time view of the manager for health and metrics.
type Stats struct {
	Generation uint64
	// QueueDepth counts ops queued or running: mutations (until the rebuild
	// they tripped has finished), rebuild requests and WaitIdle barriers.
	QueueDepth         int
	Updates            int
	Deletions          int
	Stale              bool
	Rebuilds           uint64
	RebuildFailures    uint64
	RebuildInProgress  bool
	LastRebuildSeconds float64
	// JournalFailures counts failed WAL appends and failed rebuild
	// checkpoints (such a rebuild is not published). Serving continues; a
	// non-zero value means durability is degraded.
	JournalFailures uint64
	// GraphN/GraphM describe the master graph (including not-yet-rebuilt
	// stale mutations); IndexN/IndexM the graph the served index reflects.
	GraphN, GraphM int
	IndexN, IndexM int
}

// opKind is what one queued op asks of the worker.
type opKind uint8

const (
	opAdd opKind = iota
	opRemove
	opRebuild
	opCheckpoint
	opBarrier
)

// op is one entry of the worker's FIFO. done is buffered: a mutation's
// answer is sent as soon as it is applied, any other op's once it has
// finished.
type op struct {
	kind    opKind
	u, v    int
	journal Journal // opCheckpoint: registered first when non-nil
	done    chan opResult
}

type opResult struct {
	res ApplyResult
	err error
}

// state is one published cut of the lifecycle. The worker builds each state
// from a copy of the last and publishes it whole; nothing modifies a state,
// or the graph it holds, once published.
type state struct {
	snap *Snapshot
	// graph is the master graph after seq mutations; while stale, it is
	// ahead of the graph snap reflects.
	graph             *graph.Graph
	seq               uint64
	deletions         int
	stale             bool
	rebuildInProgress bool
	rebuilds          uint64
	rebuildFailures   uint64
	lastRebuildDur    time.Duration
	journalFailures   uint64
}

// cut is the checkpoint cut of s: ErrStale while its index lags its graph.
func (s *state) cut() (CheckpointState, error) {
	if s.stale {
		return CheckpointState{}, ErrStale
	}
	return CheckpointState{Seq: s.seq, Gen: s.snap.Gen, Graph: s.graph, Fast: s.snap.Fast}, nil
}

// Manager owns the index lifecycle. Construct with New; callers may query
// (Current) from any goroutine and mutate (AddEdge/RemoveEdge) from any
// goroutine; one worker runs every op in arrival order.
type Manager struct {
	cfg  Config
	fopt ecc.FastOptions
	hopt hull.Options

	st      atomic.Pointer[state] // the published state; see publish
	queue   chan op
	pending atomic.Int64 // queued or running ops (Stats.QueueDepth)

	// Only the worker reads or writes these. held is the (generation,
	// sequence) of the last cut the journal took: NewFromState's position,
	// which the store it came from already holds, or zero for New.
	journal Journal
	held    Restored

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds the generation-1 index over g (which must be connected — serve
// the largest connected component, the paper's standard preprocessing) and
// starts the worker. The manager keeps its own copy of g. ctx bounds only
// the initial build; use Close to stop the manager.
func New(ctx context.Context, g *graph.Graph, cfg Config) (*Manager, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("lifecycle: index requires a connected graph: %w", graph.ErrDisconnected)
	}
	cfg = cfg.withDefaults()
	fopt := ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull}
	hopt, err := ecc.HullOptionsFor(fopt)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: initial build: %w", err)
	}
	fast, err := ecc.NewFastContext(ctx, g, fopt)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: initial build: %w", err)
	}
	return start(g.Clone(), fast, Restored{Gen: 1}, Restored{}, cfg, fopt, hopt), nil
}

// Restored names the persisted position a manager resumes from.
type Restored struct {
	// Gen is the generation the restored index is published as; zero means 1.
	Gen uint64
	// Seq is the mutation sequence the restored state reflects. New
	// mutations continue the numbering from here, so a WAL that was cut at
	// Seq stays contiguous across the restart.
	Seq uint64
}

// NewFromState starts a manager directly from previously built state — a
// graph plus the FASTQUERY index reflecting it — skipping the cold build
// entirely. internal/persist uses it for warm restarts from a snapshot; the
// caller owns proving that fast was built from g with cfg's options (the
// persist layer checks stored build params and graph fingerprints before
// calling this). A fast whose sketch reflects another edge set is still
// accepted, for callers that rebuild at once; a mutation before that
// rebuild goes stale when the edge counts differ, since the sketch refuses
// an update on a graph its projection does not match. The manager clones g.
func NewFromState(g *graph.Graph, fast *ecc.Fast, rs Restored, cfg Config) (*Manager, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("lifecycle: index requires a connected graph: %w", graph.ErrDisconnected)
	}
	if fast == nil || fast.Sk == nil || fast.Sk.N != g.N() {
		return nil, fmt.Errorf("lifecycle: restored index does not match graph (n=%d)", g.N())
	}
	cfg = cfg.withDefaults()
	fopt := ecc.FastOptions{Sketch: cfg.Sketch, Hull: cfg.Hull}
	hopt, err := ecc.HullOptionsFor(fopt)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: restored build options: %w", err)
	}
	if rs.Gen == 0 {
		rs.Gen = 1
	}
	return start(g.Clone(), fast, rs, rs, cfg, fopt, hopt), nil
}

// start takes ownership of g, publishes the initial state at pos, records
// held as the position a journal already holds, and launches the worker.
// Common tail of New and NewFromState.
//
//recclint:ctxroot the worker outlives every caller; its lifetime is bounded by Manager.Close, not a request context
func start(g *graph.Graph, fast *ecc.Fast, pos, held Restored, cfg Config, fopt ecc.FastOptions, hopt hull.Options) *Manager {
	bctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		fopt:   fopt,
		hopt:   hopt,
		queue:  make(chan op, cfg.QueueSize),
		held:   held,
		ctx:    bctx,
		cancel: cancel,
	}
	m.publish(state{snap: &Snapshot{Gen: pos.Gen, Fast: fast, N: g.N(), M: g.M()}, graph: g, seq: pos.Seq})
	m.wg.Add(1)
	go m.worker()
	return m
}

// publish makes a copy of s the state every reader loads, so the caller may
// go on editing its own s. Only start and the worker call it, so each
// published state follows from the one before.
func (m *Manager) publish(s state) { m.st.Store(&s) }

// AttachJournal registers j to observe the mutations and rebuilds that
// follow it, then runs Checkpoint's op. Being an op, it runs after every op
// queued before it, so a WAL replay's mutations, and the rebuilds they
// tripped, are never logged twice, and j gets the state they reached unless
// j's store already holds it (NewFromState's position). A stale index has
// no consistent cut: j is attached without one. The error is j's failed
// checkpoint, ctx's, or ErrClosed.
func (m *Manager) AttachJournal(ctx context.Context, j Journal) error {
	_, err := m.do(ctx, op{kind: opCheckpoint, journal: j})
	if errors.Is(err, ErrStale) {
		return nil
	}
	return err
}

// Checkpoint hands the attached journal the served state's cut. It is an
// op, so it runs after every op queued before it and the rebuilds they
// tripped. It writes nothing when the journal already holds the served
// (sequence, generation) or none is attached. It fails with ErrStale after
// a failed rebuild, with the journal's error, and with ErrClosed after
// Close.
func (m *Manager) Checkpoint() error {
	_, err := m.do(m.ctx, op{kind: opCheckpoint})
	return err
}

// CheckpointState returns the published state's cut for an export
// (SaveSnapshot): the master graph plus the served index, valid only while
// the two agree (ErrStale otherwise — await the rebuild and retry). Unlike
// Checkpoint it does not wait for queued ops.
func (m *Manager) CheckpointState() (CheckpointState, error) { return m.st.Load().cut() }

// Current returns the snapshot queries should use. Never nil.
func (m *Manager) Current() *Snapshot { return m.st.Load().snap }

// AddEdge inserts (u,v), updating the served index incrementally when safe.
func (m *Manager) AddEdge(ctx context.Context, u, v int) (ApplyResult, error) {
	return m.do(ctx, op{kind: opAdd, u: u, v: v})
}

// RemoveEdge deletes (u,v). Removals that would disconnect the graph are
// rejected with ErrDisconnected (the index only serves connected graphs).
func (m *Manager) RemoveEdge(ctx context.Context, u, v int) (ApplyResult, error) {
	return m.do(ctx, op{kind: opRemove, u: u, v: v})
}

// send queues o, waiting for queue space.
func (m *Manager) send(ctx context.Context, o op) error {
	m.pending.Add(1)
	select {
	case m.queue <- o:
		return nil
	case <-ctx.Done():
		m.pending.Add(-1)
		return m.ctxErr(ctx)
	case <-m.ctx.Done():
		m.pending.Add(-1)
		return ErrClosed
	}
}

// ctxErr is ctx's error, or ErrClosed once the manager is closed, also
// when ctx is m.ctx itself (Checkpoint).
func (m *Manager) ctxErr(ctx context.Context) error {
	if m.ctx.Err() != nil {
		return ErrClosed
	}
	return ctx.Err()
}

// do queues o and waits for its answer. If ctx expires after enqueueing,
// the op may still run — callers observing a ctx error should treat the
// outcome as unknown, not as a rollback.
func (m *Manager) do(ctx context.Context, o op) (ApplyResult, error) {
	o.done = make(chan opResult, 1)
	if err := m.send(ctx, o); err != nil {
		return ApplyResult{}, err
	}
	select {
	case r := <-o.done:
		return r.res, r.err
	case <-ctx.Done():
		return ApplyResult{}, m.ctxErr(ctx)
	case <-m.ctx.Done():
		return ApplyResult{}, ErrClosed
	}
}

// TriggerRebuild queues a full rebuild behind the ops already queued; like
// a mutation, it waits for queue space. Each call queues one build. A no-op
// in follower mode (followers never rebuild locally) and after Close.
func (m *Manager) TriggerRebuild() {
	// send fails only once the manager is closed, when there is nothing to
	// rebuild.
	_ = m.send(m.ctx, op{kind: opRebuild, done: make(chan opResult, 1)})
}

// RebuildAndWait queues a rebuild and waits for it, returning the
// generation that was serving when the rebuild was requested, and the
// error of the build or of its checkpoint if either failed. It is the
// deterministic re-execution entry point: trace replay needs the rebuild
// fully absorbed before the next operation runs, and needs the pre-rebuild
// generation because that is what the recording server stamped on its
// acceptance. On a follower it is a barrier.
func (m *Manager) RebuildAndWait(ctx context.Context) (uint64, error) {
	gen := m.Current().Gen
	_, err := m.do(ctx, op{kind: opRebuild})
	return gen, err
}

// Seq returns the number of mutations applied since the manager's base
// state (the restored sequence for NewFromState managers, zero for New).
// Replication uses it as the WAL tailing position.
func (m *Manager) Seq() uint64 { return m.st.Load().seq }

// WaitIdle queues a barrier and waits for it: every op queued before it
// has then finished, including the rebuilds its mutations tripped. Unless
// a rebuild failed (the manager then stays stale until the next one
// succeeds), Current() then reflects the master graph.
func (m *Manager) WaitIdle(ctx context.Context) error {
	_, err := m.do(ctx, op{kind: opBarrier})
	return err
}

// Stats reports lifecycle gauges for /healthz and /metrics.
func (m *Manager) Stats() Stats {
	s := m.st.Load()
	return Stats{
		Generation:         s.snap.Gen,
		QueueDepth:         int(m.pending.Load()),
		Updates:            s.snap.Fast.Sk.Updates,
		Deletions:          s.deletions,
		Stale:              s.stale,
		Rebuilds:           s.rebuilds,
		RebuildFailures:    s.rebuildFailures,
		RebuildInProgress:  s.rebuildInProgress,
		LastRebuildSeconds: s.lastRebuildDur.Seconds(),
		JournalFailures:    s.journalFailures,
		GraphN:             s.graph.N(),
		GraphM:             s.graph.M(),
		IndexN:             s.snap.N,
		IndexM:             s.snap.M,
	}
}

// Close stops the worker and cancels any in-flight rebuild. Queries
// against already-obtained snapshots keep working; mutations fail with
// ErrClosed.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case o := <-m.queue:
			m.run(o)
		}
	}
}

// run executes one op. A mutation is answered as soon as it is applied;
// the rebuild it trips runs before run returns, so no op overtakes it, and
// the mutation stays counted in QueueDepth until then. Any other op is
// answered once it has finished.
func (m *Manager) run(o op) {
	if o.kind == opAdd || o.kind == opRemove {
		res, err := m.apply(o)
		o.done <- opResult{res, err}
		if res.RebuildScheduled {
			m.rebuild() // a failure is counted; the next trip retries
		}
		m.pending.Add(-1)
		return
	}
	var err error
	switch {
	case o.kind == opRebuild && !m.cfg.Follower:
		err = m.rebuild()
	case o.kind == opCheckpoint:
		if o.journal != nil {
			m.journal = o.journal
		}
		err = m.checkpoint(m.st.Load())
	}
	// Uncount the op before answering, so a WaitIdle caller reads the
	// settled QueueDepth.
	m.pending.Add(-1)
	o.done <- opResult{err: err}
}

// apply validates and executes one mutation: it applies the edge to a clone
// of the published master graph, logs it, and publishes the clone with the
// updated index (or, when the index cannot absorb it, marked stale).
func (m *Manager) apply(o op) (ApplyResult, error) {
	u, v, add := o.u, o.v, o.kind == opAdd
	cur := m.st.Load()
	n := cur.graph.N()
	if u < 0 || v < 0 || u >= n || v >= n {
		return ApplyResult{}, fmt.Errorf("%w: (%d,%d) with n=%d", graph.ErrNodeRange, u, v, n)
	}
	if u == v {
		return ApplyResult{}, fmt.Errorf("%w: node %d", graph.ErrSelfLoop, u)
	}
	next := cur.graph.Clone()
	var err error
	if add {
		err = next.AddEdge(u, v) // ErrDuplicateEdge if present
	} else if err = next.RemoveEdge(u, v); err == nil && !next.Connected() {
		// Removing a bridge would disconnect the graph, which the index
		// cannot serve. The BFS is exact and O(n+m), cheap next to the solve.
		err = fmt.Errorf("lifecycle: removing (%d,%d) would disconnect the graph: %w",
			u, v, graph.ErrDisconnected)
	}
	if err != nil {
		return ApplyResult{}, err
	}

	// While the index is stale the master graph is already ahead of the
	// served sketch, so the incremental precondition ("csr is the graph the
	// sketch was built on") cannot hold — skip the solve and apply the
	// mutation graph-only; the rebuild it trips picks it up.
	var newFast *ecc.Fast
	if !cur.stale {
		// One Laplacian solve over the pre-mutation graph, an O(n·d)
		// embedding pass, and an APPROXCH re-derivation of the hull boundary.
		csr := cur.graph.ToCSR()
		var newSk *sketch.Sketch
		if add {
			newSk, _, err = cur.snap.Fast.Sk.AddEdgeUpdate(csr, u, v, m.cfg.Sketch.Solver)
		} else {
			newSk, _, err = cur.snap.Fast.Sk.RemoveEdgeUpdate(csr, u, v, m.cfg.Sketch.Solver)
		}
		if err == nil {
			newFast, err = ecc.NewFastFromSketch(newSk, m.hopt)
		}
		// err != nil here means the incremental path is unavailable
		// (bridge-like removal, solver trouble, an index whose projection
		// does not match the graph); the mutation still lands on the master
		// graph and the rebuild repairs the index ("stale" mode).
	}

	s := *cur
	s.graph = next
	s.seq++
	if m.journal != nil {
		// Log the mutation before publishing: once the caller sees the
		// result, the record is on its way to disk. Failures only degrade
		// durability (counted; recovery's gap check refuses a holed WAL).
		if jerr := m.journal.AppendMutation(s.seq, add, u, v); jerr != nil {
			s.journalFailures++
		}
	}
	if !add {
		s.deletions++
	}
	res := ApplyResult{Gen: s.snap.Gen, Mode: ModeStale}
	if newFast != nil {
		s.snap = &Snapshot{Gen: s.snap.Gen + 1, Fast: newFast, N: next.N(), M: next.M()}
		res = ApplyResult{Gen: s.snap.Gen, Mode: ModeIncremental}
	} else {
		s.stale = true
	}
	m.publish(s)
	res.RebuildScheduled = !m.cfg.Follower && (s.stale || s.deletions >= m.cfg.MaxDeletions)
	return res, nil
}

// rebuild re-sketches the master graph, hands the journal the rebuilt cut
// and only then publishes it. It runs on the worker, so no mutation can
// land while it builds. A failed build or checkpoint is counted and leaves
// the served index as it was (still stale if it was stale); the next op
// that trips the trigger tries again.
func (m *Manager) rebuild() error {
	s := *m.st.Load()
	s.rebuildInProgress = true
	m.publish(s)

	start := time.Now()
	fast, err := ecc.NewFastContext(m.ctx, s.graph, m.fopt)
	s.rebuildInProgress = false
	next := s
	if err == nil {
		next.lastRebuildDur = time.Since(start)
		next.snap = &Snapshot{Gen: s.snap.Gen + 1, Fast: fast, N: s.graph.N(), M: s.graph.M()}
		next.rebuilds++
		next.deletions = 0
		next.stale = false
		// The store takes the generation before any reader sees it, so
		// replicas restored from the store never split from the writer.
		if err = m.checkpoint(&next); err != nil {
			s.journalFailures++
		}
	}
	if err != nil {
		if m.ctx.Err() == nil {
			s.rebuildFailures++
		}
		m.publish(s)
		return fmt.Errorf("lifecycle: rebuild: %w", err)
	}
	m.publish(next)
	return nil
}

// checkpoint hands the journal s's cut unless it holds that cut already or
// no journal is attached. ErrStale when s has no consistent cut.
func (m *Manager) checkpoint(s *state) error {
	if m.journal == nil {
		return nil
	}
	cs, err := s.cut()
	if err != nil {
		return err
	}
	pos := Restored{Gen: cs.Gen, Seq: cs.Seq}
	if pos == m.held {
		return nil
	}
	if err := m.journal.Checkpoint(cs); err != nil {
		return err
	}
	m.held = pos
	return nil
}
