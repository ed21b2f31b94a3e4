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

// Signs returns the projection's sign bits: d rows of SignWords(M) words,
// bit e of row i set when row i's entry for edge e (in CSR order) is
// negative. Shared storage; read-only.
func (s *Sketch) Signs() []uint64 { return s.proj.bits }

// SignWords is the number of words one projection row of m edges takes.
func SignWords(m int) int { return (m + 63) / 64 }

// Restore rebuilds a Sketch from serialized state, and is the one check of
// its shape. flat must hold exactly n·d float64s in node-major order (n rows
// of d, as Points lists them), and signs exactly d·SignWords(M) words as
// Signs returns them; Restore takes ownership of both (the returned sketch
// aliases them). Both lengths are compared by division, so no forged n, d
// or M can wrap a product round to them, and nothing is sliced before they
// hold. The result is bit-identical to the sketch Meta, Points and Signs
// were read from, so sketched resistances — and therefore eccentricity
// answers — match exactly, and so do the updates applied to it.
func Restore(meta Meta, flat []float64, signs []uint64) (*Sketch, error) {
	if meta.Dim <= 0 || meta.N < 0 || meta.M < 0 {
		return nil, fmt.Errorf("sketch: restore: invalid shape d=%d n=%d m=%d", meta.Dim, meta.N, meta.M)
	}
	if len(flat)%meta.Dim != 0 || len(flat)/meta.Dim != meta.N {
		return nil, fmt.Errorf("sketch: restore: matrix has %d values, want n·d for n=%d d=%d",
			len(flat), meta.N, meta.Dim)
	}
	words := SignWords(meta.M)
	if len(signs)%meta.Dim != 0 || len(signs)/meta.Dim != words {
		return nil, fmt.Errorf("sketch: restore: projection of %d edges in %d words, want d·⌈m/64⌉ for d=%d",
			meta.M, len(signs), meta.Dim)
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
		proj:    projection{d: meta.Dim, m: meta.M, words: words, bits: signs},
	}
	sk.pts = make([][]float64, meta.N)
	d := meta.Dim
	for v := 0; v < meta.N; v++ {
		sk.pts[v] = flat[v*d : (v+1)*d]
	}
	return sk, nil
}
