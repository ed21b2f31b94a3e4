package resistecc

import (
	"context"
	"testing"

	"resistecc/internal/ecc"
	"resistecc/internal/testutil"
)

// queryAllocIndex builds one small FastIndex for the allocation guards.
func queryAllocIndex(tb testing.TB) *FastIndex {
	tb.Helper()
	g, err := BarabasiAlbert(400, 3, 7)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := NewFastIndex(context.Background(), g,
		WithEpsilon(0.3), WithDim(32), WithSeed(7), WithMaxHullVertices(24))
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestQueryZeroAllocs pins that the per-query hull scan
// (FastIndex.Eccentricity → sketch.EccentricityOver → sketch.Resistance)
// does not allocate; TestBatchQueryZeroAllocs and the ZeroAllocs tests of
// internal/ecc, internal/sketch, internal/solver and internal/hull do the
// same for every other kernel on the query, update, solve and hull paths.
func TestQueryZeroAllocs(t *testing.T) {
	ix := queryAllocIndex(t)
	n := ix.N()
	var sink Eccentricity
	avg := testing.AllocsPerRun(200, func() {
		sink = ix.Eccentricity(11 % n)
		sink = ix.Eccentricity(123 % n)
	})
	if avg != 0 {
		t.Errorf("FastIndex.Eccentricity allocates %.1f times per run, want 0", avg)
	}
	_ = sink
}

// TestBatchQueryZeroAllocs pins the batch engine's public layer, one case
// per function: after warm-up (pool population + scratch high-water mark),
// QueryBatch with a reused buffer — dedup, blocked kernel, fan-out,
// conversion — must not allocate at all. Batch 256 has 256 unique sources,
// so it spills onto the shared worker pool: the sharded path (jobs, join
// point, channel handoff) must be allocation-free too. The count keeps
// GOMAXPROCS (testutil.AllocsPerRun), or the pool would get one shard.
// Every index answers each id through the kernel once and from its witness
// table after that, so the measured calls answer from the table their
// warm-up filled; the hit case's table is filled by
// Distribution, as reccd's initial checkpoint fills the served one. The
// kernel's own cases are in internal/ecc and internal/sketch.
func TestBatchQueryZeroAllocs(t *testing.T) {
	ix := queryAllocIndex(t)
	hit := queryAllocIndex(t)
	hit.Distribution()
	g, err := BarabasiAlbert(400, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithEpsilon(0.3), WithDim(32), WithSeed(7), WithMaxHullVertices(24)}
	ap, err := NewApproxIndex(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicIndex(context.Background(), g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dyn.Close)

	n := ix.N()
	small := []int{11 % n, 123 % n, 11 % n, 57 % n}
	large := make([]int, 256)
	for i := range large {
		large[i] = (i * 3) % n
	}
	buf := GetBatchBuf()
	defer buf.Release()
	vals := make([]ecc.Value, len(small))
	cases := []struct {
		name string
		run  func() error
	}{
		{"BatchBuf.fill", func() error { buf.fill(vals); return nil }},
		{"FastIndex.QueryBatch/4", func() error { _, err := ix.QueryBatch(small, buf); return err }},
		{"FastIndex.QueryBatch/256", func() error { _, err := ix.QueryBatch(large, buf); return err }},
		{"FastIndex.QueryBatch/hit", func() error { _, err := hit.QueryBatch(large, buf); return err }},
		{"ApproxIndex.QueryBatch/4", func() error { _, err := ap.QueryBatch(small, buf); return err }},
		{"ApproxIndex.QueryBatch/256", func() error { _, err := ap.QueryBatch(large, buf); return err }},
		{"DynamicIndex.QueryBatch/4", func() error { _, err := dyn.QueryBatch(small, buf); return err }},
		{"DynamicIndex.QueryBatch/256", func() error { _, err := dyn.QueryBatch(large, buf); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm-up
				t.Fatal(err)
			}
			var err error
			if avg := testutil.AllocsPerRun(100, func() { err = tc.run() }); avg != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", tc.name, avg)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkQueryAllocs reports per-query time and allocations for the hull
// scan; run with -benchmem and expect 0 allocs/op.
func BenchmarkQueryAllocs(b *testing.B) {
	ix := queryAllocIndex(b)
	n := ix.N()
	b.ReportAllocs()
	b.ResetTimer()
	var sink Eccentricity
	for i := 0; i < b.N; i++ {
		sink = ix.Eccentricity(i % n)
	}
	_ = sink
}
