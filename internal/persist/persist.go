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
//     graph after exactly Seq mutations plus the index reflecting it. The
//     sketch matrix is stored bit-exactly, so a warm start answers
//     bit-identically to the index that was saved.
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

// Snapshot is the in-memory form of one persisted index generation.
type Snapshot struct {
	// Seq is the mutation sequence number this state reflects; WAL records
	// with larger sequence numbers apply on top.
	Seq uint64
	// Gen is the served generation, so clients observe a monotone
	// X-Index-Generation across restarts.
	Gen uint64
	// SavedUnixNano is the wall-clock write time (snapshot_age_seconds).
	SavedUnixNano int64
	// Params are the build inputs; BaseFP fingerprints the original input
	// graph (before any mutations), tying the artifact to its data file.
	Params Params
	BaseFP uint64

	// Graph is the master graph at Seq.
	Graph *graph.Graph
	// SketchMeta, Points and Signs carry the APPROXER state bit-exactly:
	// Signs is the projection, whose columns are Graph's edges, which the
	// sketch's exact updates read and extend.
	SketchMeta sketch.Meta
	Points     []float64
	Signs      []uint64
	// Boundary is the hull boundary Ŝ; Diameter/Certified/Rounds are the
	// APPROXCH diagnostics of hull.Result.
	Boundary  []int
	Diameter  float64
	Certified bool
	Rounds    int
}

// Capture assembles a Snapshot from a lifecycle checkpoint cut: the graph,
// the sketch matrix and the hull boundary, which is exactly what Index
// reads back. It copies state and computes nothing, so it leaves the
// generation's witness table as it found it. The trailing bool is ignored;
// it keeps callers written against the earlier four-argument form compiling.
func Capture(cs lifecycle.CheckpointState, params Params, baseFP uint64, _ ...bool) *Snapshot {
	f := cs.Fast
	return &Snapshot{
		Seq:           cs.Seq,
		Gen:           cs.Gen,
		SavedUnixNano: time.Now().UnixNano(),
		Params:        params,
		BaseFP:        baseFP,
		Graph:         cs.Graph,
		SketchMeta:    f.Sk.Meta(),
		Points:        f.Sk.AppendPoints(make([]float64, 0, f.Sk.N*f.Sk.Dim)),
		Signs:         append([]uint64(nil), f.Sk.Signs()...),
		Boundary:      append([]int(nil), f.Boundary...),
		Diameter:      f.HullInfo.Diameter,
		Certified:     f.HullInfo.Certified,
		Rounds:        f.HullInfo.Rounds,
	}
}

// Index reconstructs the FASTQUERY index from the snapshot, bit-identical
// to the one Capture saw, with an empty witness table of its own.
func (s *Snapshot) Index() (*ecc.Fast, error) {
	sk, err := sketch.Restore(s.SketchMeta, s.Points, s.Signs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	boundary := append([]int(nil), s.Boundary...)
	return &ecc.Fast{
		Sk:       sk,
		Boundary: boundary,
		HullInfo: &hull.Result{
			Vertices:  boundary,
			Diameter:  s.Diameter,
			Certified: s.Certified,
			Rounds:    s.Rounds,
		},
	}, nil
}

// validate cross-checks the decoded sections against each other, so a
// snapshot that passed every CRC but is internally inconsistent (a bug, or
// adversarial corruption that kept checksums valid) is still rejected.
func (s *Snapshot) validate() error {
	if s.Graph == nil {
		return fmt.Errorf("%w: missing graph section", ErrCorrupt)
	}
	if err := s.Graph.Validate(); err != nil {
		return fmt.Errorf("%w: graph: %v", ErrCorrupt, err)
	}
	n := s.Graph.N()
	if s.SketchMeta.N != n {
		return fmt.Errorf("%w: sketch covers %d nodes, graph has %d", ErrCorrupt, s.SketchMeta.N, n)
	}
	// d ≤ len(Points) keeps N·d from wrapping round to len(Points).
	if d := s.SketchMeta.Dim; d < 0 || d > len(s.Points) || len(s.Points) != s.SketchMeta.N*d {
		return fmt.Errorf("%w: sketch matrix has %d values, want %d",
			ErrCorrupt, len(s.Points), s.SketchMeta.N*s.SketchMeta.Dim)
	}
	// A projection has one column per graph edge and one row per sketch
	// row. d and m are both bounded by their payloads here, so the product
	// cannot wrap.
	if m := s.Graph.M(); s.SketchMeta.M != m || len(s.Signs) != s.SketchMeta.Dim*sketch.SignWords(m) {
		return fmt.Errorf("%w: projection of %d edges in %d words, want %d edges in d·⌈m/64⌉ = %d",
			ErrCorrupt, s.SketchMeta.M, len(s.Signs), m, s.SketchMeta.Dim*sketch.SignWords(m))
	}
	for _, v := range s.Boundary {
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
