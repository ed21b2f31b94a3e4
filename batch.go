package resistecc

import (
	"sync"

	"resistecc/internal/ecc"
)

// BatchBuf owns the scratch of a batch query — the dedup index and kernel
// outputs of the internal engine plus the []Eccentricity handed back to the
// caller. Reusing one across calls makes QueryBatch allocation-free in
// steady state (after the first call at the largest batch size seen). A
// buffer serves one goroutine at a time; the slice returned by QueryBatch is
// valid until the buffer's next use or Release.
type BatchBuf struct {
	qb  *ecc.QueryBuf
	out []Eccentricity
}

var batchBufPool = sync.Pool{
	New: func() any { return &BatchBuf{qb: ecc.GetQueryBuf()} },
}

// GetBatchBuf returns a pooled buffer for QueryBatch. Pair with Release.
func GetBatchBuf() *BatchBuf { return batchBufPool.Get().(*BatchBuf) }

// Release recycles the buffer. Results returned from it become invalid.
func (b *BatchBuf) Release() { batchBufPool.Put(b) }

// fill converts the engine's values into the caller-facing slice without
// allocating (past the high-water mark).
func (b *BatchBuf) fill(vals []ecc.Value) []Eccentricity {
	if cap(b.out) < len(vals) {
		b.out = make([]Eccentricity, len(vals))
	}
	out := b.out[:len(vals)]
	for i, v := range vals {
		out[i] = Eccentricity{Node: v.Node, Value: v.Ecc, Farthest: v.Farthest}
	}
	return out
}

// QueryBatch answers a batch of eccentricity queries through the blocked
// kernel: repeated ids are answered from one evaluation, one candidate scan
// is amortized across the whole batch, and a node the index has answered
// before costs one O(d) resistance to its remembered farthest node. Results
// are bit-identical to Query and per-node Eccentricity calls, in request
// order; the returned slice is owned by buf. Any node outside [0, n) fails
// the whole batch with ErrNodeOutOfRange.
func (ix *sketchIndex) QueryBatch(nodes []int, buf *BatchBuf) ([]Eccentricity, error) {
	if err := validateNodes(nodes, ix.N()); err != nil {
		return nil, err
	}
	return buf.fill(ix.f.QueryBatch(nodes, buf.qb)), nil
}

// QueryBatch is the batched EXACTQUERY: repeated ids in the batch are
// deduplicated before the O(n) per-node pinv scans.
func (ix *ExactIndex) QueryBatch(nodes []int, buf *BatchBuf) ([]Eccentricity, error) {
	if err := validateNodes(nodes, ix.N()); err != nil {
		return nil, err
	}
	return buf.fill(ix.ex.QueryBatch(nodes, buf.qb)), nil
}

// Query answers a batch of eccentricity queries against the current
// generation. Equivalent to Snapshot().Index.Query(nodes) without pinning a
// snapshot.
func (d *DynamicIndex) Query(nodes []int) ([]Eccentricity, error) {
	ix := sketchIndex{d.m.Current().Fast}
	return ix.Query(nodes)
}

// QueryBatch answers a batch of eccentricity queries against the current
// generation through the blocked kernel, allocation-free in steady state.
// All nodes in the batch are answered by the same generation; callers
// needing a consistent view across multiple calls should pin a Snapshot and
// use its Index instead.
func (d *DynamicIndex) QueryBatch(nodes []int, buf *BatchBuf) ([]Eccentricity, error) {
	ix := sketchIndex{d.m.Current().Fast}
	return ix.QueryBatch(nodes, buf)
}
