// Package lifecycle owns the dynamic-serving core of the repository: a
// generation-numbered FASTQUERY index behind an RCU-style atomic pointer and
// one worker goroutine that drains a FIFO of ops. An op is an edge add or
// removal (AddEdge/RemoveEdge), which applies the sketch's exact
// Sherman–Morrison update in place of a full rebuild; a rebuild request; a
// checkpoint (Checkpoint, and AttachJournal, which registers the journal
// first); or a WaitIdle barrier. Every op is answered once it has finished.
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
//   - Ops run one at a time, in arrival order. A mutation is validated, the
//     sketch is updated, the hull is re-derived, the journal appends, and
//     the state is published with Gen+1: every edit that keeps the graph
//     connected is absorbed exactly. An update that fails (a solver
//     failure, a sketch whose projection does not match the graph) fails
//     the mutation, which then changes nothing. So the served index always
//     reflects the master graph.
//   - A rebuild runs only on request (TriggerRebuild, RebuildAndWait). It
//     re-sketches the master graph with the original options (same seeds),
//     so it serves exactly what a cold build of the current graph would. It
//     runs on the worker, so no mutation can overtake it: reads continue on
//     the published generation, and mutations queue behind it. With a
//     journal attached, the rebuilt cut is checkpointed before it is
//     published, so the writer never serves a generation its store cannot
//     reproduce; a failed checkpoint fails the rebuild.
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

// Journal observes committed state for durability (internal/persist wires a
// WAL + snapshot store through it). Both methods run on the worker, the
// journal's only caller. AppendMutation runs after each mutation is applied
// and before it is published, with the post-mutation sequence number; a
// failure is counted in Stats.JournalFailures and the mutation still lands.
// A mutation whose update fails is not appended.
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
}

// queueSize is the op queue's capacity; enqueueing blocks (with the
// caller's context as the way out) when it is full.
const queueSize = 64

// Snapshot is one immutable generation of the served index. N and M describe
// the graph this index reflects.
type Snapshot struct {
	Gen  uint64
	Fast *ecc.Fast
	N, M int
}

// ApplyResult describes the outcome of one accepted mutation.
type ApplyResult struct {
	// Gen is the generation the mutation published.
	Gen uint64
}

// Stats is a point-in-time view of the manager for health and metrics.
type Stats struct {
	Generation uint64
	// QueueDepth counts ops queued or running: mutations, rebuild requests,
	// checkpoints and WaitIdle barriers.
	QueueDepth         int
	Updates            int
	Rebuilds           uint64
	RebuildFailures    uint64
	RebuildInProgress  bool
	LastRebuildSeconds float64
	// JournalFailures counts failed WAL appends and failed rebuild
	// checkpoints (such a rebuild is not published). Serving continues; a
	// non-zero value means durability is degraded.
	JournalFailures uint64
	// N and M describe the master graph, which the served index reflects.
	N, M int
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

// op is one entry of the worker's FIFO. done is buffered, and gets the
// op's answer once it has finished.
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
	// graph is the master graph after seq mutations, the graph snap
	// reflects.
	graph             *graph.Graph
	seq               uint64
	rebuildInProgress bool
	rebuilds          uint64
	rebuildFailures   uint64
	lastRebuildDur    time.Duration
	journalFailures   uint64
}

// cut is the checkpoint cut of s.
func (s *state) cut() CheckpointState {
	return CheckpointState{Seq: s.seq, Gen: s.snap.Gen, Graph: s.graph, Fast: s.snap.Fast}
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
// rebuild fails when the edge counts differ, since the sketch refuses an
// update on a graph its projection does not match. The manager clones g.
func NewFromState(g *graph.Graph, fast *ecc.Fast, rs Restored, cfg Config) (*Manager, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("lifecycle: index requires a connected graph: %w", graph.ErrDisconnected)
	}
	if fast == nil || fast.Sk == nil || fast.Sk.N != g.N() {
		return nil, fmt.Errorf("lifecycle: restored index does not match graph (n=%d)", g.N())
	}
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
		queue:  make(chan op, queueSize),
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
// queued before it, so a WAL replay's mutations are never logged twice,
// and j gets the state they reached unless j's store already holds it
// (NewFromState's position). The error is j's failed checkpoint, ctx's,
// or ErrClosed.
func (m *Manager) AttachJournal(ctx context.Context, j Journal) error {
	_, err := m.do(ctx, op{kind: opCheckpoint, journal: j})
	return err
}

// Checkpoint hands the attached journal the served state's cut. It is an
// op, so it runs after every op queued before it. It writes nothing when
// the journal already holds the served (sequence, generation) or none is
// attached. It fails with the journal's error, and with ErrClosed after
// Close.
func (m *Manager) Checkpoint() error {
	_, err := m.do(m.ctx, op{kind: opCheckpoint})
	return err
}

// CheckpointState returns the published state's cut for an export
// (SaveSnapshot): the master graph plus the served index reflecting it.
// Unlike Checkpoint it does not wait for queued ops.
func (m *Manager) CheckpointState() CheckpointState { return m.st.Load().cut() }

// Current returns the snapshot queries should use. Never nil.
func (m *Manager) Current() *Snapshot { return m.st.Load().snap }

// AddEdge inserts (u,v) and publishes the index of the new graph.
func (m *Manager) AddEdge(ctx context.Context, u, v int) (ApplyResult, error) {
	return m.do(ctx, op{kind: opAdd, u: u, v: v})
}

// RemoveEdge deletes (u,v) and publishes the index of the new graph.
// Removals that would disconnect the graph are rejected with
// ErrDisconnected (the index only serves connected graphs).
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
// after Close.
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
// acceptance.
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
// has then finished.
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
		Rebuilds:           s.rebuilds,
		RebuildFailures:    s.rebuildFailures,
		RebuildInProgress:  s.rebuildInProgress,
		LastRebuildSeconds: s.lastRebuildDur.Seconds(),
		JournalFailures:    s.journalFailures,
		N:                  s.snap.N,
		M:                  s.snap.M,
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

// run executes one op and answers it.
func (m *Manager) run(o op) {
	var res ApplyResult
	var err error
	switch o.kind {
	case opAdd, opRemove:
		res, err = m.apply(o)
	case opRebuild:
		err = m.rebuild()
	case opCheckpoint:
		if o.journal != nil {
			m.journal = o.journal
		}
		err = m.checkpoint(m.st.Load())
	}
	// Uncount the op before answering, so a WaitIdle caller reads the
	// settled QueueDepth.
	m.pending.Add(-1)
	o.done <- opResult{res, err}
}

// apply executes one mutation. The sketch update validates it (node range,
// self loop, presence, and for a removal connectivity) and moves the
// sketch to the new graph; only then is the edge applied to a clone of the
// master graph, logged, and published with the re-derived hull. A failed
// update returns its error and changes nothing.
func (m *Manager) apply(o op) (ApplyResult, error) {
	u, v, add := o.u, o.v, o.kind == opAdd
	cur := m.st.Load()
	// One Laplacian solve, an O(n·d) embedding pass, and an APPROXCH
	// re-derivation of the hull boundary.
	update := cur.snap.Fast.Sk.AddEdgeUpdate
	if !add {
		update = cur.snap.Fast.Sk.RemoveEdgeUpdate
	}
	sk, _, err := update(cur.graph.ToCSR(), u, v, m.cfg.Sketch.Solver)
	if err != nil {
		return ApplyResult{}, err
	}
	fast, err := ecc.NewFastFromSketch(sk, m.hopt)
	if err != nil {
		return ApplyResult{}, err
	}
	next := cur.graph.Clone()
	if add {
		err = next.AddEdge(u, v)
	} else {
		err = next.RemoveEdge(u, v)
	}
	if err != nil {
		return ApplyResult{}, err
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
	s.snap = &Snapshot{Gen: s.snap.Gen + 1, Fast: fast, N: next.N(), M: next.M()}
	m.publish(s)
	return ApplyResult{Gen: s.snap.Gen}, nil
}

// rebuild re-sketches the master graph, hands the journal the rebuilt cut
// and only then publishes it. It runs on the worker, so no mutation can
// land while it builds. A failed build or checkpoint is counted and leaves
// the served index as it was.
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
// no journal is attached.
func (m *Manager) checkpoint(s *state) error {
	if m.journal == nil {
		return nil
	}
	cs := s.cut()
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
