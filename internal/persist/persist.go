// Package persist is the durable store for the dynamic FASTQUERY index:
// versioned, checksummed binary snapshots of a served index generation plus
// a mutation write-ahead log, so a restart replays cheap WAL records instead
// of re-running the Õ(m/ε²) sketch build, and acknowledged edge mutations
// survive a crash.
//
// The design follows the "precompute offline, persist, answer from the
// stored artifact" pattern of the resistance-labelling line of related work,
// adapted to the lifecycle manager's consistency model:
//
//   - A snapshot is a consistent cut (lifecycle.CheckpointState): the master
//     graph after exactly Seq mutations plus the index reflecting it. A
//     checkpoint writes the published generation itself, shared read-only:
//     each section streams to the file with its CRC computed as it goes, so
//     no second copy of the sketch is made. The sketch matrix is stored
//     bit-exactly, so a warm start answers bit-identically to the index
//     that was saved, and reading restores that generation once.
//   - The WAL logs every committed mutation with its sequence number.
//     Recovery loads the newest valid snapshot and replays records Seq+1,
//     Seq+2, … through the ordinary lifecycle mutation path, landing in the
//     same state, bit for bit, a live server would.
//   - Every corruption — torn snapshot, truncated or bit-flipped WAL tail,
//     format-version or build-parameter mismatch — degrades to a cold build.
//     Never to wrong answers: a record or section is used only after its CRC
//     and sequence checks pass.
//
// Files in a store directory: "wal.log" and "snapshot-<seq>.snap" (only the
// newest is kept; an interrupted checkpoint leaves at most a stray tmp file
// that the next Open removes).
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/lifecycle"
	"resistecc/internal/sketch"
)

// FormatVersion is the current snapshot/WAL format version. Readers reject
// any other version (a mismatch degrades to a cold build, by design: the
// artifact is a cache, not a source of truth).
const FormatVersion = 3

var (
	// ErrCorrupt marks a snapshot or WAL whose structure or checksums do not
	// hold. Callers fall back to older artifacts or a cold build.
	ErrCorrupt = errors.New("persist: corrupt artifact")
	// ErrVersion marks an artifact written by an incompatible format version.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrMismatch marks a snapshot whose build parameters or base-graph
	// fingerprint do not match what the caller is serving.
	ErrMismatch = errors.New("persist: snapshot does not match requested build")
)

// Params captures every build input that determines index content. Two
// builds with equal Params over the same graph are bit-identical, so a
// snapshot is valid for a caller exactly when its stored Params equal the
// caller's. Fields mirror the raw (pre-default-resolution) options: both
// sides resolve zeros identically downstream, so comparing raw values is
// conservative and safe. Every other build input derives from these: the
// solver runs at its default tolerance, and the hull's θ and seed follow
// from ε and the sketch seed.
type Params struct {
	Epsilon         float64
	Dim             int
	Seed            int64
	HullMaxVertices int
}

// SketchOptions expands the stored parameters back into build options
// (solver workers are a speed knob, not a content input, and default).
func (p Params) SketchOptions() sketch.Options {
	return sketch.Options{Epsilon: p.Epsilon, Dim: p.Dim, Seed: p.Seed}
}

// HullOptions expands the stored hull parameters.
func (p Params) HullOptions() hull.Options {
	return hull.Options{MaxVertices: p.HullMaxVertices}
}

// Snapshot is one persisted index generation: a checkpoint cut and the
// stamp that ties it to its build. A captured snapshot shares the cut's
// published graph and generation read-only (CheckpointState's contract:
// nothing writes through a snapshot); a snapshot from ReadSnapshot holds
// the graph and generation it decoded and restored.
type Snapshot struct {
	// The cut: Seq is the mutation sequence number this state reflects (WAL
	// records with larger sequence numbers apply on top); Gen is the served
	// generation, so clients observe a monotone X-Index-Generation across
	// restarts; Graph is the master graph at Seq; and Fast is the index
	// generation for it, whose sketch matrix and projection are stored
	// bit-exactly with its hull boundary Ŝ and APPROXCH diagnostics.
	lifecycle.CheckpointState
	// SavedUnixNano is the wall-clock write time (snapshot_age_seconds).
	SavedUnixNano int64
	// Params are the build inputs; BaseFP fingerprints the original input
	// graph (before any mutations), tying the artifact to its data file.
	Params Params
	BaseFP uint64
}

// Capture stamps a lifecycle checkpoint cut as a Snapshot. It copies
// nothing and computes nothing: WriteSnapshot streams the published graph
// and generation from where they are served, and the generation's witness
// table is left as it was. The trailing bool is ignored; it keeps callers
// written against the earlier four-argument form compiling.
func Capture(cs lifecycle.CheckpointState, params Params, baseFP uint64, _ ...bool) *Snapshot {
	return &Snapshot{CheckpointState: cs, SavedUnixNano: time.Now().UnixNano(), Params: params, BaseFP: baseFP}
}

// Index returns the snapshot's generation as an index of its own: the same
// immutable sketch and hull, with an empty witness table. It answers
// bit-identically to the index Capture saw. The error is always nil, since
// ReadSnapshot accepts only a snapshot whose generation restores.
func (s *Snapshot) Index() (*ecc.Fast, error) {
	return &ecc.Fast{Sk: s.Fast.Sk, Boundary: s.Fast.Boundary, HullInfo: s.Fast.HullInfo}, nil
}

// validate cross-checks the decoded sections against each other, so a
// snapshot that passed every CRC but whose sections disagree (a bug, or
// adversarial corruption that kept checksums valid) is still rejected. The
// sketch's own shape is sketch.Restore's to check.
func validate(g *graph.Graph, meta sketch.Meta, boundary []int) error {
	n, m := g.N(), g.M()
	if meta.N != n {
		return fmt.Errorf("%w: sketch covers %d nodes, graph has %d", ErrCorrupt, meta.N, n)
	}
	if meta.M != m {
		return fmt.Errorf("%w: projection of %d edges, graph has %d", ErrCorrupt, meta.M, m)
	}
	for _, v := range boundary {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: boundary node %d out of range n=%d", ErrCorrupt, v, n)
		}
	}
	return nil
}

// Fingerprint hashes a graph's exact edge set: FNV-1a over n, m and the
// canonical (sorted, u < v) edge list. Adjacency lists are kept sorted, so
// equal edge sets hash equally regardless of insertion order.
func Fingerprint(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	g.EachEdge(func(u, v int) bool {
		put(uint64(u)<<32 | uint64(v))
		return true
	})
	return h.Sum64()
}
