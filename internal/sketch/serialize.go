//recclint:deterministic — serialization must round-trip the sketch bit-exactly.

package sketch

import "fmt"

// Meta mirrors the scalar state of a Sketch for serialization: everything a
// snapshot must round-trip besides the embedding matrix and the projection's
// sign words.
type Meta struct {
	Dim int
	N   int
	// M is the number of edges the projection has columns for.
	M       int
	Epsilon float64
	Seed    int64
	Updates int
	Stats   BuildStats
}

// Meta returns the serializable scalar state of the sketch.
func (s *Sketch) Meta() Meta {
	return Meta{
		Dim:     s.Dim,
		N:       s.N,
		M:       s.proj.m,
		Epsilon: s.Epsilon,
		Seed:    s.Seed,
		Updates: s.Updates,
		Stats:   s.Stats,
	}
}

// AppendPoints appends the embedding matrix to dst in node-major order
// (n rows of d float64s) and returns the extended slice. Together with Meta
// and Signs this is the full sketch state; Restore inverts it bit-exactly.
func (s *Sketch) AppendPoints(dst []float64) []float64 {
	for _, p := range s.pts {
		dst = append(dst, p...)
	}
	return dst
}

// Signs returns the projection's sign bits: d rows of SignWords(M) words,
// bit e of row i set when row i's entry for edge e (in CSR order) is
// negative. Shared storage; read-only.
func (s *Sketch) Signs() []uint64 { return s.proj.bits }

// SignWords is the number of words one projection row of m edges takes.
func SignWords(m int) int { return (m + 63) / 64 }

// Restore rebuilds a Sketch from serialized state. flat must hold exactly
// n*d float64s in the node-major layout produced by AppendPoints, and signs
// exactly d·SignWords(M) words as Signs returns them; Restore takes
// ownership of both (the returned sketch aliases them). The result is
// bit-identical to the sketch Meta/AppendPoints/Signs were called on, so
// sketched resistances — and therefore eccentricity answers — match
// exactly, and so do the updates applied to it.
func Restore(meta Meta, flat []float64, signs []uint64) (*Sketch, error) {
	if meta.Dim <= 0 || meta.N < 0 || meta.M < 0 {
		return nil, fmt.Errorf("sketch: restore: invalid shape d=%d n=%d m=%d", meta.Dim, meta.N, meta.M)
	}
	if len(flat) != meta.N*meta.Dim {
		return nil, fmt.Errorf("sketch: restore: matrix has %d values, want n*d = %d",
			len(flat), meta.N*meta.Dim)
	}
	if len(signs) != meta.Dim*SignWords(meta.M) {
		return nil, fmt.Errorf("sketch: restore: projection has %d words, want d*⌈m/64⌉ = %d",
			len(signs), meta.Dim*SignWords(meta.M))
	}
	if meta.Epsilon <= 0 || meta.Epsilon >= 1 {
		return nil, fmt.Errorf("%w, got %g", ErrBadEpsilon, meta.Epsilon)
	}
	sk := &Sketch{
		Dim:     meta.Dim,
		N:       meta.N,
		Epsilon: meta.Epsilon,
		Seed:    meta.Seed,
		Updates: meta.Updates,
		Stats:   meta.Stats,
		proj:    projection{d: meta.Dim, m: meta.M, words: SignWords(meta.M), bits: signs},
	}
	sk.pts = make([][]float64, meta.N)
	d := meta.Dim
	for v := 0; v < meta.N; v++ {
		sk.pts[v] = flat[v*d : (v+1)*d]
	}
	return sk, nil
}
