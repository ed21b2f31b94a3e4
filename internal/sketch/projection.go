//recclint:deterministic — the projection is index content: writer, restores and replicas must hold the same bits.

package sketch

import (
	"math/rand"
	"sort"

	"resistecc/internal/graph"
)

// projection is the sign pattern of Q, the d×m ±1/√d matrix of X̃ = Q·B·L†:
// bit e of row i is set when Q[i][e] = −1/√d. Its columns are the graph's
// edges in CSR order, which is lexicographic (u,v) order for u < v since
// adjacency lists are sorted. Rows are bitsets of words words each, so the
// build's blocks of four rows write disjoint words.
type projection struct {
	d, m, words int
	bits        []uint64 // d rows of words words; bits past m are zero
}

func newProjection(d, m int) projection {
	words := SignWords(m)
	return projection{d: d, m: m, words: words, bits: make([]uint64, d*words)}
}

func (p projection) row(i int) []uint64 { return p.bits[i*p.words : (i+1)*p.words] }

// drawRow fills row i from the build's stream for that row: edge e's sign
// is the low bit of the stream's e-th Int63.
func (p projection) drawRow(i int, rng *rand.Rand) {
	row := p.row(i)
	for e := 0; e < p.m; e++ {
		row[e>>6] |= uint64(rng.Int63()&1) << (e & 63)
	}
}

// column returns edge e's column of Q as ⌈d/64⌉ words, bit i of word k
// being row 64k+i's sign.
func (p projection) column(e int) []uint64 {
	col := make([]uint64, (p.d+63)/64)
	w, o := e>>6, uint(e&63)
	for i := 0; i < p.d; i++ {
		col[i>>6] |= (p.bits[i*p.words+w] >> o & 1) << (i & 63)
	}
	return col
}

// withColumn returns a copy of p with col inserted as edge e's column; the
// edges from e on move up one place.
func (p projection) withColumn(e int, col []uint64) projection {
	out := newProjection(p.d, p.m+1)
	for i := 0; i < p.d; i++ {
		insertBit(out.row(i), p.row(i), e, col[i>>6]>>(i&63)&1)
	}
	return out
}

// withoutColumn returns a copy of p without edge e's column; the edges
// above e move down one place.
func (p projection) withoutColumn(e int) projection {
	out := newProjection(p.d, p.m-1)
	for i := 0; i < p.d; i++ {
		deleteBit(out.row(i), p.row(i), e)
	}
	return out
}

// insertBit writes the bit string src into dst, one bit longer, with b at
// position e: bits below e keep their place and the rest move up one.
func insertBit(dst, src []uint64, e int, b uint64) {
	w, o := e>>6, uint(e&63)
	copy(dst[:w], src[:w])
	var s uint64
	if w < len(src) {
		s = src[w]
	}
	low := uint64(1)<<o - 1
	dst[w] = s&low | b<<o | (s&^low)<<1
	carry := s >> 63
	for k := w + 1; k < len(dst); k++ {
		s = 0
		if k < len(src) {
			s = src[k]
		}
		dst[k] = s<<1 | carry
		carry = s >> 63
	}
}

// deleteBit writes the bit string src into dst, one bit shorter, without
// the bit at position e: bits below e keep their place and the rest move
// down one.
func deleteBit(dst, src []uint64, e int) {
	w, o := e>>6, uint(e&63)
	copy(dst[:w], src[:w])
	low := uint64(1)<<o - 1
	for k := w; k < len(dst); k++ {
		s, next := src[k], uint64(0)
		if k+1 < len(src) {
			next = src[k+1]
		}
		if k == w {
			s = s&low | (s>>1)&^low
		} else {
			s >>= 1
		}
		dst[k] = s | next<<63
	}
}

// addedColumn draws the column of Q for an edge (u,v), u < v, added after
// the build, as ⌈d/64⌉ words laid out as column returns them. Word k is the
// k-th output of a SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014)
// keyed by (seed, u, v), so it is a pure function of (seed, u, v, row):
// every holder of the seed draws the same column, and an edge added again
// gets it again. Bits past d are zero.
func addedColumn(seed int64, u, v, d int) []uint64 {
	const gamma = 0x9E3779B97F4A7C15
	key := mix64(mix64(uint64(seed)) ^ uint64(u)<<32 ^ uint64(v))
	col := make([]uint64, (d+63)/64)
	for k := range col {
		col[k] = mix64(key + uint64(k+1)*gamma)
	}
	if r := d & 63; r != 0 {
		col[len(col)-1] &= 1<<r - 1
	}
	return col
}

// mix64 is SplitMix64's finaliser.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// edgeRank returns the position edge (u,v), u < v, holds, or would hold
// once added, in csr's edge order, and whether csr has it.
func edgeRank(csr *graph.CSR, u, v int) (int, bool) {
	e := 0
	for a := 0; a < u; a++ {
		nb := csr.Neighbors(a)
		e += len(nb) - above(nb, a)
	}
	nb := csr.Neighbors(u)
	j := sort.Search(len(nb), func(i int) bool { return nb[i] >= int32(v) })
	return e + j - above(nb, u), j < len(nb) && nb[j] == int32(v)
}

// above is the index of the first entry of the sorted list nb above a.
func above(nb []int32, a int) int {
	return sort.Search(len(nb), func(i int) bool { return nb[i] > int32(a) })
}
