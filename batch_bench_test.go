package resistecc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The batch benchmarks compare the batch engine against per-node queries on
// one shared mid-size index (build cost is paid once per `go test`
// invocation, not per sub-benchmark). `make bench-json` records them in
// BENCH_10.json.
//
// Two workloads are measured at each batch size:
//
//   - BenchmarkBatchQuery / BenchmarkBatchSerial / BenchmarkBatchKernel:
//     Zipf-skewed ids, the shape of real serving traffic against a
//     scale-free graph (hubs are queried far more often than leaves).
//     Repeated ids are where the engine's per-batch dedup pays: the serial
//     path scans the boundary once per request, the batched path once per
//     distinct id.
//   - the Distinct variants: all-distinct ids, the dedup-free worst case,
//     isolating what the blocked kernel and call-overhead amortization give
//     on their own.
//
// The index answers each node through the kernel once and from its witness
// table after that, and these benchmarks repeat one batch on one index, so
// BenchmarkBatchQuery* time the served path with a warm table: one O(d)
// resistance per distinct id. BenchmarkBatchKernel* time the blocked kernel
// alone on the same batches, one O(l·d) boundary scan per id.
//
// On multi-core machines batches past minParallelSources also shard across
// the engine's worker pool; single-core runs measure the pure kernel.
var (
	batchBenchOnce sync.Once
	batchBenchIx   *FastIndex
	batchBenchErr  error
)

func batchBenchIndex(b *testing.B) *FastIndex {
	b.Helper()
	batchBenchOnce.Do(func() {
		g, err := BarabasiAlbert(3000, 3, 17)
		if err != nil {
			batchBenchErr = err
			return
		}
		batchBenchIx, batchBenchErr = NewFastIndex(context.Background(), g,
			WithEpsilon(0.3), WithDim(64), WithSeed(17), WithMaxHullVertices(64))
	})
	if batchBenchErr != nil {
		b.Fatal(batchBenchErr)
	}
	return batchBenchIx
}

// batchBenchZipf draws a deterministic Zipf(1.2)-distributed id batch. The
// rank→id scatter keeps popular ids from being consecutive rows.
func batchBenchZipf(n, size int) []int {
	r := rand.New(rand.NewSource(42))
	z := rand.NewZipf(r, 1.2, 1, uint64(n-1))
	nodes := make([]int, size)
	for i := range nodes {
		nodes[i] = int(z.Uint64()*961748927+7) % n
	}
	return nodes
}

// batchBenchDistinct returns size distinct ids (size must be ≤ n).
func batchBenchDistinct(n, size int) []int {
	nodes := make([]int, size)
	for i := range nodes {
		nodes[i] = (i*2654435761 + 12345) % n
	}
	return nodes
}

var batchBenchSizes = []int{1, 16, 256}

func benchBatched(b *testing.B, ix *FastIndex, nodes []int) {
	b.Helper()
	buf := GetBatchBuf()
	defer buf.Release()
	if _, err := ix.QueryBatch(nodes, buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.QueryBatch(nodes, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel times the blocked kernel (sketch.EccentricityBatch) on nodes
// into preallocated outputs, with no dedup, witness table or worker pool.
func benchKernel(b *testing.B, ix *FastIndex, nodes []int) {
	b.Helper()
	ecc, arg := make([]float64, len(nodes)), make([]int, len(nodes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.f.Sk.EccentricityBatch(nodes, ix.f.Boundary, ecc, arg)
	}
}

func benchSerial(b *testing.B, ix *FastIndex, nodes []int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var sink Eccentricity
	for i := 0; i < b.N; i++ {
		for _, v := range nodes {
			sink = ix.Eccentricity(v)
		}
	}
	_ = sink
}

// BenchmarkBatchQuery measures the served batch path on Zipf-skewed traffic
// with a warm witness table: pooled buffer, dedup, one resistance per
// distinct id. ns/op is per batch; divide by the batch size for per-request
// cost.
func BenchmarkBatchQuery(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchBatched(b, ix, batchBenchZipf(ix.N(), size))
		})
	}
}

// BenchmarkBatchSerial is the per-node baseline: the same Zipf-skewed batch
// answered one boundary scan per request.
func BenchmarkBatchSerial(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchSerial(b, ix, batchBenchZipf(ix.N(), size))
		})
	}
}

// BenchmarkBatchKernel times the blocked kernel alone on the Zipf-skewed
// batches, one boundary scan per id, duplicates included.
func BenchmarkBatchKernel(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchKernel(b, ix, batchBenchZipf(ix.N(), size))
		})
	}
}

// BenchmarkBatchQueryDistinct is the dedup-free case: every id in the batch
// distinct, each answered from the warm witness table.
func BenchmarkBatchQueryDistinct(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchBatched(b, ix, batchBenchDistinct(ix.N(), size))
		})
	}
}

// BenchmarkBatchKernelDistinct times the blocked kernel alone on the
// all-distinct batches.
func BenchmarkBatchKernelDistinct(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchKernel(b, ix, batchBenchDistinct(ix.N(), size))
		})
	}
}

// BenchmarkBatchSerialDistinct is the per-node baseline on the same
// all-distinct batches.
func BenchmarkBatchSerialDistinct(b *testing.B) {
	ix := batchBenchIndex(b)
	for _, size := range batchBenchSizes {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			benchSerial(b, ix, batchBenchDistinct(ix.N(), size))
		})
	}
}
