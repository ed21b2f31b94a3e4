// Package repl implements the replicated serving tier: a writer ships
// snapshots and serves WAL tails (Source), replicas pull and apply them
// (Tailer), and a router spreads query batches over healthy replicas with
// generation-aware read-your-writes routing (Pool).
//
// The protocol is two idempotent GETs on the writer:
//
//	GET /v1/repl/snapshot        → raw RECCSNP1 bytes (X-Repl-Seq, X-Repl-Generation)
//	GET /v1/repl/wal?from=N      → RECCTAL1 frame of WAL records with Seq ≥ N
//
// A tail position the writer can no longer vouch for (truncated by a
// checkpoint, or diverged across a restart) answers 410 Gone with code
// "wal_gap"; the replica re-bases on a fresh snapshot. Every payload is
// checksummed end to end (per-section CRCs in the snapshot, header + per-
// record CRCs in the tail frame), so a corrupt transfer is rejected before
// any of it is applied.
//
// The replica's tail poll and the router's health sweep are par.Every
// loops: Tailer.Start and Pool.Start return the loop's only stop func,
// which cancels the poll or sweep in flight and waits for it.
package repl

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"resistecc/internal/obs"
	"resistecc/internal/persist"
)

// Source serves a writer's replication feed from its durable store.
// Handlers are safe for concurrent use with serving and mutations; they
// take the store mutex only long enough to cut a consistent view.
type Source struct {
	// Store is the writer's durable store (snapshot + WAL).
	Store *persist.Store
	// Generation reports the writer's currently served index generation,
	// stamped on tail frames so caught-up replicas can detect divergence.
	Generation func() uint64

	// Serving counters: Store and Generation above are set before the
	// first request and never reassigned; these are the only fields
	// handlers mutate, each atomically, snapshotted by Stats.
	snapshotsServed atomic.Uint64
	framesServed    atomic.Uint64
	recordsServed   atomic.Uint64
	bytesServed     atomic.Uint64
}

// DefaultMaxBatch caps records per tail frame, and is what a Tailer asks
// for unless configured to ask for less. Fetches asking for more are
// truncated; the frame's LastSeq tells the replica to keep fetching.
const DefaultMaxBatch = 4096

// SourceStats are cumulative serving counters for metrics.
type SourceStats struct {
	SnapshotsServed uint64
	FramesServed    uint64
	RecordsServed   uint64
	BytesServed     uint64
}

// Stats returns a point-in-time view of the serving counters.
func (s *Source) Stats() SourceStats {
	return SourceStats{
		SnapshotsServed: s.snapshotsServed.Load(),
		FramesServed:    s.framesServed.Load(),
		RecordsServed:   s.recordsServed.Load(),
		BytesServed:     s.bytesServed.Load(),
	}
}

// ServeSnapshot answers GET /v1/repl/snapshot with the newest on-disk
// snapshot, raw. 503 "no_snapshot" before the first checkpoint — the
// caller retries; the writer checkpoints at startup.
func (s *Source) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	b, seq, gen, err := s.Store.SnapshotBytes()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "no_snapshot", "writer has no snapshot yet; retry")
		return
	}
	s.snapshotsServed.Add(1)
	s.bytesServed.Add(uint64(len(b)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Seq", strconv.FormatUint(seq, 10))
	w.Header().Set("X-Repl-Generation", strconv.FormatUint(gen, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// ServeWAL answers GET /v1/repl/wal?from=N with a RECCTAL1 frame of the
// records with Seq ≥ N (capped at DefaultMaxBatch). 410 "wal_gap" when the
// store cannot vouch for that position: the replica must re-base on the
// current snapshot.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_parameter", "missing or malformed ?from=")
		return
	}
	max := DefaultMaxBatch
	// A replica may ask for less (smaller apply batches); never more.
	if raw := r.URL.Query().Get("max"); raw != "" {
		if m, err := strconv.Atoi(raw); err == nil && m > 0 && m < max {
			max = m
		}
	}
	view, err := s.Store.TailSince(from, max)
	if err != nil {
		writeErr(w, http.StatusGone, "wal_gap",
			"position %d outside the served tail; re-fetch the snapshot", from)
		return
	}
	frame := persist.EncodeTailFrame(persist.TailFrame{
		LastSeq:   view.LastSeq,
		WriterGen: s.Generation(),
		SnapSeq:   view.SnapSeq,
		SnapGen:   view.SnapGen,
		Records:   view.Records,
	})
	s.framesServed.Add(1)
	s.recordsServed.Add(uint64(len(view.Records)))
	s.bytesServed.Add(uint64(len(frame)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// writeErr emits the canonical {"error":{code,message}} envelope via the
// shared obs helper, so replication clients and human callers see one error
// shape — and exactly one implementation of it.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	obs.WriteError(w, status, code, format, args...)
}
