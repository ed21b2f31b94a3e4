//recclint:deterministic — the build must be bit-identical for identical options (rebuild == cold build).

package sketch

// Batch eccentricity kernels. The serial query path answers one source at a
// time: EccentricityOver streams all l candidate embeddings (l·d floats) per
// source, and its inner loop is a single dependent FMA chain, so per-pair
// cost is bound by floating-point add latency, not throughput. The batch
// kernel tiles sources four at a time against the candidate stream: each
// candidate vector is loaded once per source block instead of once per
// source, and the four accumulator chains are independent, so the CPU
// overlaps them. Summation order per (source, candidate) pair is exactly the
// serial order — j ascending over the d dimensions, candidates in slice
// order — so results are bit-identical to EccentricityOver/Eccentricity,
// including argmax tie-breaking (strict > keeps the earliest maximum).

// EccentricityBatch computes ĉ(src) = max_{v ∈ cand, v ≠ src} r̃(src, v) for
// every source in srcs, writing the value and the witness farthest node into
// ecc[i] and arg[i]. A source with no admissible candidate gets (0, src),
// matching EccentricityOver. cand is FASTQUERY's hull boundary Ŝ, or all n
// nodes in node order for APPROXQUERY, whose answers then equal
// Eccentricity's bit for bit. ecc and arg must have len(srcs) elements; the
// kernel allocates nothing.
func (s *Sketch) EccentricityBatch(srcs, cand []int, ecc []float64, arg []int) {
	si := 0
	for ; si+4 <= len(srcs); si += 4 {
		s.scan4(srcs[si], srcs[si+1], srcs[si+2], srcs[si+3], cand, ecc[si:si+4], arg[si:si+4])
	}
	for ; si < len(srcs); si++ {
		ecc[si], arg[si] = s.EccentricityOver(srcs[si], cand)
	}
}

// scan4 is the register tile of the batch kernel: four sources scanned
// against the candidate list in one pass. The candidate embedding pv is read
// once per iteration and consumed by four independent accumulator chains.
func (s *Sketch) scan4(s0, s1, s2, s3 int, cand []int, ecc []float64, arg []int) {
	p0, p1, p2, p3 := s.pts[s0], s.pts[s1], s.pts[s2], s.pts[s3]
	e0, e1, e2, e3 := 0.0, 0.0, 0.0, 0.0
	a0, a1, a2, a3 := s0, s1, s2, s3
	for _, v := range cand {
		pv := s.pts[v]
		// Equal-length reslices let the compiler elide the q[j] bound checks.
		q0, q1, q2, q3 := p0[:len(pv)], p1[:len(pv)], p2[:len(pv)], p3[:len(pv)]
		var r0, r1, r2, r3 float64
		for j, x := range pv {
			t0 := q0[j] - x
			r0 += t0 * t0
			t1 := q1[j] - x
			r1 += t1 * t1
			t2 := q2[j] - x
			r2 += t2 * t2
			t3 := q3[j] - x
			r3 += t3 * t3
		}
		if v != s0 && r0 > e0 {
			e0, a0 = r0, v
		}
		if v != s1 && r1 > e1 {
			e1, a1 = r1, v
		}
		if v != s2 && r2 > e2 {
			e2, a2 = r2, v
		}
		if v != s3 && r3 > e3 {
			e3, a3 = r3, v
		}
	}
	ecc[0], ecc[1], ecc[2], ecc[3] = e0, e1, e2, e3
	arg[0], arg[1], arg[2], arg[3] = a0, a1, a2, a3
}
