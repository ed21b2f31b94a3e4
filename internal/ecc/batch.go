package ecc

import (
	"runtime"
	"slices"
	"sync"

	"resistecc/internal/sketch"
)

// QueryBuf owns the scratch a batch query needs: the dedup index, the
// per-unique-source answers and kernel outputs, and the result slice handed
// back to the caller. A buffer may be reused across any number of QueryBatch
// calls on any index; after the first few calls at a given batch size the
// whole path performs zero heap allocations. Buffers are not safe for concurrent use —
// one goroutine, one buffer. Use GetQueryBuf/Release to recycle buffers
// through a pool, or embed a QueryBuf in a long-lived worker.
type QueryBuf struct {
	keys []int64   // packed (node << 32 | position) pairs, sorted for dedup
	uniq []int     // distinct query nodes, ascending
	perm []int     // perm[i] = index into uniq for query position i
	ecc  []float64 // answer per unique node
	arg  []int     // farthest witness per unique node
	vals []Value   // result slice returned by QueryBatch

	// Fast.QueryBatch's kernel sources: the unique nodes the witness table
	// cannot answer yet, their indexes into uniq, and the kernel's outputs.
	miss []int
	at   []int
	mecc []float64
	marg []int

	// Scratch for the parallel spill path (nu >= minParallelSources): one
	// pre-sized job per shard plus the join point, so handing chunks to the
	// shared worker pool allocates nothing either.
	jobs []batchJob
	wg   sync.WaitGroup
}

var queryBufPool = sync.Pool{New: func() any { return new(QueryBuf) }}

// GetQueryBuf returns a pooled buffer. Pair with Release.
func GetQueryBuf() *QueryBuf { return queryBufPool.Get().(*QueryBuf) }

// Release returns the buffer to the pool. The slice returned by the last
// QueryBatch call on it becomes invalid.
func (b *QueryBuf) Release() { queryBufPool.Put(b) }

// grow ensures every scratch slice holds n elements, reallocating only when
// a larger batch than ever before arrives — the one place the batch path may
// allocate.
func (b *QueryBuf) grow(n int) {
	if cap(b.keys) < n {
		b.keys = make([]int64, n)
		b.uniq = make([]int, n)
		b.perm = make([]int, n)
		b.ecc = make([]float64, n)
		b.arg = make([]int, n)
		b.vals = make([]Value, n)
		b.miss = make([]int, n)
		b.at = make([]int, n)
		b.mecc = make([]float64, n)
		b.marg = make([]int, n)
	}
	b.keys = b.keys[:n]
	b.uniq = b.uniq[:n]
	b.perm = b.perm[:n]
	b.ecc = b.ecc[:n]
	b.arg = b.arg[:n]
	b.vals = b.vals[:n]
	b.miss = b.miss[:n]
	b.at = b.at[:n]
	b.mecc = b.mecc[:n]
	b.marg = b.marg[:n]
}

// dedup fills b.uniq with the distinct nodes of q (ascending) and b.perm
// with, per query position, the index of its node in uniq. Returns the
// number of distinct nodes. Nodes must be in [0, 2³¹) — the public layers
// validate ids before reaching here. Sorting packed (node, position) keys
// keeps this allocation-free; repeated ids in a batch are answered from one
// kernel evaluation.
func (b *QueryBuf) dedup(q []int) int {
	if len(q) == 1 {
		b.uniq[0], b.perm[0] = q[0], 0
		return 1
	}
	keys := b.keys[:len(q)]
	for i, v := range q {
		keys[i] = int64(v)<<32 | int64(uint32(i))
	}
	slices.Sort(keys)
	nu := 0
	prev := -1
	for _, k := range keys {
		v, pos := int(k>>32), int(uint32(k))
		if v != prev {
			b.uniq[nu] = v
			nu++
			prev = v
		}
		b.perm[pos] = nu - 1
	}
	return nu
}

// The blocked kernel alone cannot beat the serial scan by much on a modern
// core: both are bound by scalar floating-point throughput (the summation
// order that bit-identity pins cannot be vectorized or reassociated). Large
// batches therefore shard across a lazily-started, GOMAXPROCS-sized worker
// pool shared by all indexes. Shards are disjoint sub-ranges of the unique
// sources, each answered by the same kernel, so results stay bit-identical
// regardless of scheduling; jobs and the join point live in the QueryBuf, so
// the spill path allocates nothing in steady state either.

// minParallelSources is the unique-source count at which QueryBatch shards
// across the worker pool. Below it the per-shard work would not amortize the
// handoff; the whole batch runs on the calling goroutine.
const minParallelSources = 64

type batchJob struct {
	sk   *sketch.Sketch
	cand []int
	srcs []int
	ecc  []float64
	arg  []int
	wg   *sync.WaitGroup
}

var (
	batchWorkersOnce sync.Once
	batchJobs        chan *batchJob
)

// startBatchWorkers spawns the shared shard workers on first use. The
// workers are deliberately never torn down: there are GOMAXPROCS of them for
// the process lifetime, parked on channel receive when idle.
func startBatchWorkers() {
	workers := runtime.GOMAXPROCS(0)
	batchJobs = make(chan *batchJob, workers)
	for i := 0; i < workers; i++ {
		go batchWorker()
	}
}

// batchWorker drains the shared job channel for the process lifetime.
//
//recclint:detached process-lifetime shard worker parked on channel receive; torn down only at exit (see startBatchWorkers) and accounted for in testutil.DetachedMarks
func batchWorker() {
	for j := range batchJobs {
		j.sk.EccentricityBatch(j.srcs, j.cand, j.ecc, j.arg)
		j.wg.Done()
	}
}

// scan answers srcs against the candidates cand with the blocked kernel, on
// the calling goroutine below minParallelSources sources and sharded across
// the worker pool from there.
func (b *QueryBuf) scan(sk *sketch.Sketch, cand, srcs []int, ecc []float64, arg []int) {
	if len(srcs) >= minParallelSources {
		b.scanParallel(sk, cand, srcs, ecc, arg)
	} else {
		sk.EccentricityBatch(srcs, cand, ecc, arg)
	}
}

// scanParallel runs the kernel over srcs sharded across the worker pool.
// Chunks are rounded up to the 4-wide tile so only the final shard has
// remainder lanes; the first chunk runs inline on the caller, which also
// keeps progress when the pool is saturated by other batches.
func (b *QueryBuf) scanParallel(sk *sketch.Sketch, cand, srcs []int, ecc []float64, arg []int) {
	batchWorkersOnce.Do(startBatchWorkers)
	nu := len(srcs)
	workers := runtime.GOMAXPROCS(0)
	chunk := (nu + workers - 1) / workers
	chunk = (chunk + 3) &^ 3
	nchunks := (nu + chunk - 1) / chunk
	if cap(b.jobs) < nchunks {
		b.jobs = make([]batchJob, nchunks)
	}
	b.wg.Add(nchunks - 1)
	for c := 1; c < nchunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > nu {
			hi = nu
		}
		j := &b.jobs[c]
		j.sk, j.cand = sk, cand
		j.srcs, j.ecc, j.arg = srcs[lo:hi], ecc[lo:hi], arg[lo:hi]
		j.wg = &b.wg
		batchJobs <- j
	}
	hi := chunk
	if hi > nu {
		hi = nu
	}
	sk.EccentricityBatch(srcs[:hi], cand, ecc[:hi], arg[:hi])
	b.wg.Wait()
}

// QueryBatch answers FASTQUERY (or APPROXQUERY, when Boundary is V) for a
// whole batch and fans the answers back out in request order. Ids are
// deduplicated. An id this index has answered before costs one O(d)
// resistance to its stored farthest witness; the rest go through the
// blocked kernel, one O(l·d) candidate scan amortized over them, which
// stores their witnesses. Results are bit-identical to calling
// Eccentricity per element, because the kernel sums each (source, candidate)
// pair in exactly Resistance's order. Concurrent calls on one index are safe
// with distinct buffers. The returned slice is owned by buf and valid until
// its next use. Callers must have validated ids against [0, n).
func (f *Fast) QueryBatch(q []int, buf *QueryBuf) []Value {
	buf.grow(len(q))
	if len(q) == 0 {
		return buf.vals[:0]
	}
	nu := buf.dedup(q)
	far := f.witnesses()
	nm := 0
	for i, v := range buf.uniq[:nu] {
		if w := int(far[v].Load()) - 1; w >= 0 {
			buf.ecc[i], buf.arg[i] = f.Sk.Resistance(v, w), w
			continue
		}
		buf.miss[nm], buf.at[nm] = v, i
		nm++
	}
	if nm > 0 {
		buf.scan(f.Sk, f.Boundary, buf.miss[:nm], buf.mecc[:nm], buf.marg[:nm])
		for k, i := range buf.at[:nm] {
			buf.ecc[i], buf.arg[i] = buf.mecc[k], buf.marg[k]
			far[buf.miss[k]].Store(uint32(buf.marg[k]) + 1)
		}
	}
	return fanOut(q, buf)
}

// QueryBatch is the batched EXACTQUERY: dedup amortizes the O(n) pinv row
// scan over repeated ids; values are bit-identical to Eccentricity.
func (e *Exact) QueryBatch(q []int, buf *QueryBuf) []Value {
	buf.grow(len(q))
	if len(q) == 0 {
		return buf.vals[:0]
	}
	nu := buf.dedup(q)
	for i, v := range buf.uniq[:nu] {
		val := e.Eccentricity(v)
		buf.ecc[i], buf.arg[i] = val.Ecc, val.Farthest
	}
	return fanOut(q, buf)
}

// fanOut maps per-unique kernel outputs back to per-position Values.
func fanOut(q []int, buf *QueryBuf) []Value {
	out := buf.vals[:len(q)]
	for i, v := range q {
		j := buf.perm[i]
		out[i] = Value{Node: v, Ecc: buf.ecc[j], Farthest: buf.arg[j]}
	}
	return out
}
