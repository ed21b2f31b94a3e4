package ecc

import (
	"testing"

	"resistecc/internal/testutil"
)

// TestZeroAllocs pins, one case per function, that the batch engine and the
// serial FASTQUERY scan allocate nothing once their scratch is warm. The
// n=150 sources of the whole-graph batches exceed minParallelSources, so
// those cases run the sharded path on the shared worker pool; the count
// keeps GOMAXPROCS (testutil.AllocsPerRun), or the pool would get one shard.
// The Fast.QueryBatch/4 and /150 cases empty the witness table before each
// call, so every id takes the kernel and stores its witness; the hit case
// answers every id from a table the warm-up filled.
func TestZeroAllocs(t *testing.T) {
	_, _, f := batchTestIndexes(t)
	small := []int{3, 77, 3, 120}
	all := identity(f.Sk.N)
	kb := new(QueryBuf) // direct kernel calls, sized for the whole graph
	kb.grow(len(all))
	nu := kb.dedup(all)
	buf := new(QueryBuf)
	hit := &Fast{Sk: f.Sk, Boundary: f.Boundary}
	var sink Value
	cases := []struct {
		name string
		run  func()
	}{
		{"QueryBuf.dedup", func() { kb.dedup(all) }},
		{"QueryBuf.dedup/1", func() { buf.grow(1); buf.dedup(small[:1]) }},
		{"QueryBuf.scanParallel", func() { kb.scanParallel(f.Sk, f.Boundary, kb.uniq[:nu], kb.ecc[:nu], kb.arg[:nu]) }},
		{"fanOut", func() { fanOut(all, kb) }},
		{"Fast.QueryBatch/4", func() { forget(f); f.QueryBatch(small, buf) }},
		{"Fast.QueryBatch/150", func() { forget(f); f.QueryBatch(all, buf) }},
		{"Fast.QueryBatch/hit", func() { hit.QueryBatch(all, buf) }},
		{"Fast.Eccentricity", func() { sink = f.Eccentricity(77) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run() // warm-up
			if avg := testutil.AllocsPerRun(100, tc.run); avg != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", tc.name, avg)
			}
		})
	}
	_ = sink
}

// forget empties f's witness table in place, so its next QueryBatch takes
// the kernel for every id again.
func forget(f *Fast) {
	if t := f.far.Load(); t != nil {
		for i := range *t {
			(*t)[i].Store(0)
		}
	}
}
