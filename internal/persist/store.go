package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"resistecc/internal/lifecycle"
)

// ErrTailGap is returned by TailSince when the requested position falls
// outside the contiguous WAL run the store can serve: below the newest
// snapshot (those records were absorbed and truncated), beyond the newest
// record (the caller's history diverged, e.g. across a writer restart), or
// inside a hole left by a failed append. The caller must re-base on the
// current snapshot instead of tailing.
var ErrTailGap = errors.New("persist: requested WAL position outside the served tail")

// ErrNoSnapshot is returned by SnapshotBytes before the first checkpoint.
var ErrNoSnapshot = errors.New("persist: no snapshot on disk")

// Store manages one durable-index directory: the newest snapshot plus the
// WAL of mutations committed since it. All file operations serialize on an
// internal mutex; the lock-free query path never touches the store.
type Store struct {
	dir string

	mu         sync.Mutex
	wal        *os.File // guarded by mu
	walRecords int      // guarded by mu
	walLastSeq uint64   // guarded by mu
	recovered  []Record // guarded by mu; valid WAL prefix found at Open, consumed by Recover
	tail       []Record // guarded by mu; in-memory mirror of the WAL for O(1) tail serving
	tailHole   bool     // guarded by mu; a failed append left a gap — tail unservable until rewritten

	hasSnap  bool      // guarded by mu
	snapSeq  uint64    // guarded by mu
	snapGen  uint64    // guarded by mu
	snapTime time.Time // guarded by mu

	checkpoints        uint64        // guarded by mu
	checkpointFailures uint64        // guarded by mu
	lastCheckpointDur  time.Duration // guarded by mu
}

// StoreStats is a point-in-time view of the store for metrics.
type StoreStats struct {
	WALRecords         int
	WALLastSeq         uint64
	HasSnapshot        bool
	SnapshotSeq        uint64
	SnapshotGen        uint64
	SnapshotTime       time.Time
	Checkpoints        uint64
	CheckpointFailures uint64
	LastCheckpointDur  time.Duration
}

// Open prepares dir (creating it if needed), sweeps temp files left by
// interrupted checkpoints, and opens the WAL, repairing a torn tail in
// place. Call Recover next to obtain the persisted state.
//
//recclint:holds mu — the store is not shared until Open returns.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: open store: %w", err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	wal, recs, err := loadWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	st := &Store{dir: dir, wal: wal, recovered: recs}
	st.tail = append([]Record(nil), recs...)
	st.walRecords = len(recs)
	if n := len(recs); n > 0 {
		st.walLastSeq = recs[n-1].Seq
	}
	return st, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// snapshotPath names the snapshot file for a sequence number.
func (st *Store) snapshotPath(seq uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("snapshot-%016x.snap", seq))
}

// snapshotFiles lists snapshot files newest-sequence-first.
func (st *Store) snapshotFiles() []string {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "snapshot-") && strings.HasSuffix(n, ".snap") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded hex: lexicographic = numeric
	return names
}

// Recover returns the newest valid snapshot together with the WAL records
// that apply on top of it: the longest contiguous run Seq+1, Seq+2, …
// found in the log. Corrupt or mismatched snapshot files are skipped
// (newest-first); with no usable snapshot it returns (nil, nil, nil) and
// resets the WAL — records without their base state are unusable, and the
// caller cold-builds. The WAL file is rewritten to exactly the returned
// records, restoring the invariant "log = mutations since the snapshot".
func (st *Store) Recover() (*Snapshot, []Record, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	recs := st.recovered
	st.recovered = nil

	var snap *Snapshot
	for _, name := range st.snapshotFiles() {
		s, err := ReadSnapshotFile(filepath.Join(st.dir, name))
		if err != nil {
			continue // corrupt or foreign-version snapshot: try an older one
		}
		snap = s
		break
	}
	if snap == nil {
		if err := st.rewriteWALLocked(nil); err != nil {
			return nil, nil, err
		}
		return nil, nil, nil
	}

	// Keep only the contiguous run starting right after the snapshot. A
	// record below the cut is a leftover the checkpoint's truncation did not
	// reach (crash between rename and truncate); a gap means lost history —
	// everything past it must be dropped, or replay would skip a mutation.
	usable := recs[:0]
	next := snap.Seq + 1
	for _, r := range recs {
		if r.Seq < next {
			continue
		}
		if r.Seq != next {
			break
		}
		usable = append(usable, r)
		next++
	}
	if err := st.rewriteWALLocked(usable); err != nil {
		return nil, nil, err
	}
	st.hasSnap = true
	st.snapSeq = snap.Seq
	st.snapGen = snap.Gen
	st.snapTime = time.Unix(0, snap.SavedUnixNano)
	return snap, usable, nil
}

// Append logs one committed mutation and fsyncs the WAL, so an
// acknowledged mutation survives a crash. Called (via Hook) on the
// lifecycle mutation worker after each commit.
func (st *Store) Append(r Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := encodeRecord(r)
	if _, err := st.wal.Write(b[:]); err != nil {
		return fmt.Errorf("persist: wal append: %w", err)
	}
	if err := st.wal.Sync(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	// Mirror the record for tail serving. A non-contiguous append means an
	// earlier append failed (a hole on disk too): the tail stops serving
	// until the next checkpoint re-anchors it — a replica must never be
	// handed a run with a silent gap in it.
	if n := len(st.tail); !st.tailHole && (n == 0 || r.Seq == st.tail[n-1].Seq+1) {
		st.tail = append(st.tail, r)
	} else {
		st.tail = nil
		st.tailHole = true
	}
	st.walRecords++
	st.walLastSeq = r.Seq
	return nil
}

// TailView is a consistent cut of the servable WAL tail: the records from
// the requested position, plus where the log and the newest snapshot stood
// when the cut was taken.
type TailView struct {
	// Records is the contiguous run starting at the requested position
	// (possibly empty when the caller is caught up, possibly capped).
	Records []Record
	// LastSeq is the newest sequence the store has (snapshot or WAL), so
	// callers can compute lag even from a capped or empty view.
	LastSeq uint64
	// SnapSeq/SnapGen identify the newest on-disk snapshot.
	SnapSeq, SnapGen uint64
}

// TailSince returns the WAL records with sequence ≥ from, capped at max
// (0 = uncapped). It fails with ErrTailGap when from is not inside the
// contiguous run the store can vouch for: at or below the newest snapshot's
// sequence, past the newest record + 1, in a hole left by a failed append,
// or before the first checkpoint exists. Records are copied; the view stays
// valid after the store moves on.
func (st *Store) TailSince(from uint64, max int) (TailView, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := TailView{LastSeq: st.snapSeq, SnapSeq: st.snapSeq, SnapGen: st.snapGen}
	// The tail is anchored when it starts exactly one past the snapshot; an
	// unanchored tail (hole after a failed append, or records predating a
	// failed checkpoint truncation) is not servable.
	anchored := !st.tailHole && (len(st.tail) == 0 || st.tail[0].Seq == st.snapSeq+1)
	if len(st.tail) > 0 && anchored {
		v.LastSeq = st.tail[len(st.tail)-1].Seq
	}
	if !st.hasSnap || !anchored || from == 0 || from <= st.snapSeq || from > v.LastSeq+1 {
		return TailView{}, ErrTailGap
	}
	recs := st.tail[from-st.snapSeq-1:]
	if max > 0 && len(recs) > max {
		recs = recs[:max]
	}
	v.Records = append([]Record(nil), recs...)
	return v, nil
}

// SnapshotBytes returns the raw encoded bytes of the newest on-disk
// snapshot together with its sequence and generation, for shipping to a
// replica. Fails with ErrNoSnapshot before the first checkpoint.
func (st *Store) SnapshotBytes() ([]byte, uint64, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.hasSnap {
		return nil, 0, 0, ErrNoSnapshot
	}
	b, err := os.ReadFile(st.snapshotPath(st.snapSeq))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("persist: snapshot bytes: %w", err)
	}
	return b, st.snapSeq, st.snapGen, nil
}

// Checkpoint atomically writes snap as the newest snapshot, deletes older
// snapshot files and drops WAL records at or below snap.Seq. An out-of-date
// checkpoint (older than the one already on disk: a lower Seq, or the same
// Seq at a lower generation) is skipped. In a serving process the lifecycle
// worker writes every checkpoint in order, so the guard is a backstop for
// other callers (benchmarks, tools) that write to the store directly.
func (st *Store) Checkpoint(snap *Snapshot) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.hasSnap && (snap.Seq < st.snapSeq || snap.Seq == st.snapSeq && snap.Gen < st.snapGen) {
		return nil
	}
	start := time.Now()
	err := st.checkpointLocked(snap)
	st.lastCheckpointDur = time.Since(start)
	if err != nil {
		st.checkpointFailures++
		return err
	}
	st.checkpoints++
	return nil
}

func (st *Store) checkpointLocked(snap *Snapshot) error {
	path := st.snapshotPath(snap.Seq)
	if err := WriteSnapshotFile(path, snap); err != nil {
		return fmt.Errorf("persist: checkpoint: %w", err)
	}
	st.hasSnap = true
	st.snapSeq = snap.Seq
	st.snapGen = snap.Gen
	st.snapTime = time.Unix(0, snap.SavedUnixNano)
	keep := filepath.Base(path)
	for _, name := range st.snapshotFiles() {
		if name != keep {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
	// Drop the records the snapshot absorbed. Appends racing this
	// checkpoint carry seq > snap.Seq and are preserved.
	recs, _, err := st.walRecordsOnDiskLocked()
	if err != nil {
		return err
	}
	live := recs[:0]
	for _, r := range recs {
		if r.Seq > snap.Seq {
			live = append(live, r)
		}
	}
	return st.rewriteWALLocked(live)
}

// Reset wipes the store to empty: all snapshots deleted, WAL truncated.
// Used when a cold build replaces persisted state that no longer matches
// the input (changed data file or build parameters).
func (st *Store) Reset() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, name := range st.snapshotFiles() {
		os.Remove(filepath.Join(st.dir, name))
	}
	st.hasSnap = false
	st.snapSeq, st.snapGen = 0, 0
	st.snapTime = time.Time{}
	return st.rewriteWALLocked(nil)
}

// walRecordsOnDiskLocked re-reads the WAL file. Callers hold st.mu.
func (st *Store) walRecordsOnDiskLocked() ([]Record, int64, error) {
	if _, err := st.wal.Seek(0, 0); err != nil {
		return nil, 0, err
	}
	_, recs, size, err := scanWAL(st.wal)
	if err != nil {
		return nil, 0, err
	}
	if _, serr := st.wal.Seek(0, 2); serr != nil {
		return nil, 0, serr
	}
	return recs, size, nil
}

// rewriteWALLocked atomically replaces the WAL with header + recs and
// reopens the append handle. Callers hold st.mu.
func (st *Store) rewriteWALLocked(recs []Record) (err error) {
	path := filepath.Join(st.dir, "wal.log")
	tmp, err := os.CreateTemp(st.dir, tmpPrefix+"wal-*")
	if err != nil {
		return fmt.Errorf("persist: wal rewrite: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	hdr := walHeader()
	if _, err = tmp.Write(hdr[:]); err != nil {
		return err
	}
	for _, r := range recs {
		b := encodeRecord(r)
		if _, err = tmp.Write(b[:]); err != nil {
			return err
		}
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err = syncDir(st.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	old := st.wal
	st.wal = f
	if old != nil {
		//recclint:ignore syncerr the rename above already replaced this handle's inode; its close error cannot lose acknowledged records
		old.Close()
	}
	st.tail = append([]Record(nil), recs...)
	st.tailHole = false
	st.walRecords = len(recs)
	if n := len(recs); n > 0 {
		st.walLastSeq = recs[n-1].Seq
	} else {
		st.walLastSeq = 0
	}
	return nil
}

// Stats reports store gauges for metrics endpoints.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StoreStats{
		WALRecords:         st.walRecords,
		WALLastSeq:         st.walLastSeq,
		HasSnapshot:        st.hasSnap,
		SnapshotSeq:        st.snapSeq,
		SnapshotGen:        st.snapGen,
		SnapshotTime:       st.snapTime,
		Checkpoints:        st.checkpoints,
		CheckpointFailures: st.checkpointFailures,
		LastCheckpointDur:  st.lastCheckpointDur,
	}
}

// Close releases the WAL handle. Detach the store from its lifecycle
// manager (Close the manager) first.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal == nil {
		return nil
	}
	err := st.wal.Close()
	st.wal = nil
	return err
}

// Hook adapts a Store to lifecycle.Journal: committed mutations append WAL
// records, and the lifecycle worker, the store's only checkpoint writer in
// a serving process, checkpoints through it when the journal is attached,
// on demand, and for every rebuild before the rebuilt index is served
// (absorbing and truncating the log). Params and BaseFP stamp each snapshot
// so recovery can prove it matches the serving configuration.
type Hook struct {
	Store  *Store
	Params Params
	BaseFP uint64
}

// AppendMutation implements lifecycle.Journal.
func (h *Hook) AppendMutation(seq uint64, add bool, u, v int) error {
	return h.Store.Append(Record{Seq: seq, Add: add, U: u, V: v})
}

// Checkpoint implements lifecycle.Journal.
func (h *Hook) Checkpoint(cs lifecycle.CheckpointState) error {
	return h.Store.Checkpoint(Capture(cs, h.Params, h.BaseFP))
}
