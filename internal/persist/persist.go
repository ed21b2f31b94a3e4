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
//     same incremental/stale/rebuild state a live server would.
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
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/lifecycle"
	"resistecc/internal/sketch"
	"resistecc/internal/solver"
)

// FormatVersion is the current snapshot/WAL format version. Readers reject
// any other version (a mismatch degrades to a cold build, by design: the
// artifact is a cache, not a source of truth).
const FormatVersion = 1

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
// conservative and safe.
type Params struct {
	Epsilon   float64
	Dim       int
	Seed      int64
	SolverTol float64

	HullTheta       float64
	HullSeed        int64
	HullDirections  int
	HullMaxVertices int
	HullMaxFWIters  int
}

// SketchOptions expands the stored parameters back into build options
// (solver workers are a speed knob, not a content input, and default).
func (p Params) SketchOptions() sketch.Options {
	return sketch.Options{
		Epsilon: p.Epsilon,
		Dim:     p.Dim,
		Seed:    p.Seed,
		Solver:  solver.Options{Tol: p.SolverTol},
	}
}

// HullOptions expands the stored hull parameters.
func (p Params) HullOptions() hull.Options {
	return hull.Options{
		Theta:       p.HullTheta,
		Seed:        p.HullSeed,
		Directions:  p.HullDirections,
		MaxVertices: p.HullMaxVertices,
		MaxFWIters:  p.HullMaxFWIters,
	}
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
	// SketchMeta + Points carry the APPROXER state bit-exactly.
	SketchMeta sketch.Meta
	Points     []float64
	// Boundary is the hull boundary Ŝ; Diameter/Certified/Rounds are the
	// APPROXCH diagnostics of hull.Result.
	Boundary  []int
	Diameter  float64
	Certified bool
	Rounds    int
	// Ecc optionally caches the eccentricity distribution E(G) at Seq (nil
	// when absent). Purely an acceleration for summary endpoints.
	Ecc []float64
}

// Capture assembles a Snapshot from a lifecycle checkpoint cut. When
// withEcc is set the eccentricity distribution is computed and embedded
// (O(n·l·d), cheap next to the build the checkpoint amortizes).
func Capture(cs lifecycle.CheckpointState, params Params, baseFP uint64, withEcc bool) *Snapshot {
	f := cs.Fast
	s := &Snapshot{
		Seq:           cs.Seq,
		Gen:           cs.Gen,
		SavedUnixNano: time.Now().UnixNano(),
		Params:        params,
		BaseFP:        baseFP,
		Graph:         cs.Graph,
		SketchMeta:    f.Sk.Meta(),
		Points:        f.Sk.AppendPoints(make([]float64, 0, f.Sk.N*f.Sk.Dim)),
		Boundary:      append([]int(nil), f.Boundary...),
		Diameter:      f.HullInfo.Diameter,
		Certified:     f.HullInfo.Certified,
		Rounds:        f.HullInfo.Rounds,
	}
	if withEcc {
		s.Ecc = f.DistributionParallel(0)
	}
	return s
}

// Index reconstructs the FASTQUERY index from the snapshot, bit-identical
// to the one Capture saw.
func (s *Snapshot) Index() (*ecc.Fast, error) {
	sk, err := sketch.Restore(s.SketchMeta, s.Points)
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
	for _, v := range s.Boundary {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: boundary node %d out of range n=%d", ErrCorrupt, v, n)
		}
	}
	if s.Ecc != nil && len(s.Ecc) != n {
		return fmt.Errorf("%w: eccentricity cache has %d values, want %d", ErrCorrupt, len(s.Ecc), n)
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
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
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
