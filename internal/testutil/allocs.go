package testutil

import "runtime"

// AllocsPerRun is testing.AllocsPerRun without its switch to GOMAXPROCS=1:
// work that f hands to other goroutines, such as the batch engine's shard
// pool, which is sized from GOMAXPROCS, runs as it does in production and is
// counted too. Like testing.AllocsPerRun it warms up with one call and
// returns the integer mean over runs.
func AllocsPerRun(runs int, f func()) float64 {
	f()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&ms)
	return float64((ms.Mallocs - before) / uint64(runs))
}
