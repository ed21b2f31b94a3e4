package ecc

import (
	"runtime"
	"slices"
	"sync"

	"resistecc/internal/sketch"
)

// QueryBuf owns the scratch a batch query needs: the dedup index, the
// per-unique-source kernel outputs, and the result slice handed back to the
// caller. A buffer may be reused across any number of QueryBatch calls on
// any index; after the first few calls at a given batch size the whole path
// performs zero heap allocations. Buffers are not safe for concurrent use —
// one goroutine, one buffer. Use GetQueryBuf/Release to recycle buffers
// through a pool, or embed a QueryBuf in a long-lived worker.
type QueryBuf struct {
	keys []int64   // packed (node << 32 | position) pairs, sorted for dedup
	uniq []int     // distinct query nodes, ascending
	perm []int     // perm[i] = index into uniq for query position i
	ecc  []float64 // kernel output per unique node
	arg  []int     // kernel witness per unique node
	vals []Value   // result slice returned by QueryBatch

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
	}
	b.keys = b.keys[:n]
	b.uniq = b.uniq[:n]
	b.perm = b.perm[:n]
	b.ecc = b.ecc[:n]
	b.arg = b.arg[:n]
	b.vals = b.vals[:n]
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
	cand []int // boundary scan when all is false
	all  bool  // full n-node scan (APPROXQUERY)
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
		if j.all {
			j.sk.EccentricityBatchAll(j.srcs, j.ecc, j.arg)
		} else {
			j.sk.EccentricityBatch(j.srcs, j.cand, j.ecc, j.arg)
		}
		j.wg.Done()
	}
}

// scanParallel runs the kernel over b.uniq[:nu] sharded across the worker
// pool. Chunks are rounded up to the 4-wide tile so only the final shard has
// remainder lanes; the first chunk runs inline on the caller, which also
// keeps progress when the pool is saturated by other batches.
func (b *QueryBuf) scanParallel(sk *sketch.Sketch, cand []int, all bool, nu int) {
	batchWorkersOnce.Do(startBatchWorkers)
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
		j.sk, j.cand, j.all = sk, cand, all
		j.srcs, j.ecc, j.arg = b.uniq[lo:hi], b.ecc[lo:hi], b.arg[lo:hi]
		j.wg = &b.wg
		batchJobs <- j
	}
	hi := chunk
	if hi > nu {
		hi = nu
	}
	if all {
		sk.EccentricityBatchAll(b.uniq[:hi], b.ecc[:hi], b.arg[:hi])
	} else {
		sk.EccentricityBatch(b.uniq[:hi], cand, b.ecc[:hi], b.arg[:hi])
	}
	b.wg.Wait()
}

// QueryBatch answers FASTQUERY for a whole batch through the blocked kernel:
// ids are deduplicated, one hull-boundary scan is amortized over all unique
// sources, and the per-position results are fanned back out in request
// order. Results are bit-identical to calling Eccentricity per element. The
// returned slice is owned by buf and valid until its next use. Callers must
// have validated ids against [0, n).
func (f *Fast) QueryBatch(q []int, buf *QueryBuf) []Value {
	buf.grow(len(q))
	if len(q) == 0 {
		return buf.vals[:0]
	}
	nu := buf.dedup(q)
	if nu >= minParallelSources {
		buf.scanParallel(f.Sk, f.Boundary, false, nu)
	} else {
		f.Sk.EccentricityBatch(buf.uniq[:nu], f.Boundary, buf.ecc[:nu], buf.arg[:nu])
	}
	return fanOut(q, buf)
}

// QueryBatch is the batched APPROXQUERY: like Fast.QueryBatch but scanning
// all n embeddings per unique source instead of the hull boundary.
func (a *Approx) QueryBatch(q []int, buf *QueryBuf) []Value {
	buf.grow(len(q))
	if len(q) == 0 {
		return buf.vals[:0]
	}
	nu := buf.dedup(q)
	if nu >= minParallelSources {
		buf.scanParallel(a.Sk, nil, true, nu)
	} else {
		a.Sk.EccentricityBatchAll(buf.uniq[:nu], buf.ecc[:nu], buf.arg[:nu])
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
