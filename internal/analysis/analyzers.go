// Package analysis is the recclint registry: the repo-specific static
// checks that machine-enforce invariants which otherwise live only in
// comments — mutex guards on lifecycle state, fsync-before-ack durability in
// the persist layer, bit-identity float comparisons, and deterministic
// build/serialize paths. The v2 analyzers add dataflow-backed checks on top
// (see internal/analysis/dataflow): deadlock-free lock acquisition order,
// resources closed on every path, contexts threaded instead of minted, and
// allocation-free hot paths. The v3 analyzers extend the same substrate with
// goroutine-spawn edges and closure capture for whole-program concurrency
// checks: goroutine lifecycle, channel close discipline, WaitGroup balance,
// and sync/atomic hygiene. The v4 analyzers guard metrics registration
// hygiene and sentinel-error identity. cmd/recclint runs the full suite;
// `make lint` and the CI lint job gate every change on it.
package analysis

import (
	"resistecc/internal/analysis/atomicmix"
	"resistecc/internal/analysis/chandisc"
	"resistecc/internal/analysis/ctxflow"
	"resistecc/internal/analysis/determinism"
	"resistecc/internal/analysis/erridentity"
	"resistecc/internal/analysis/floateq"
	"resistecc/internal/analysis/framework"
	"resistecc/internal/analysis/goroutinelife"
	"resistecc/internal/analysis/hotpath"
	"resistecc/internal/analysis/lockguard"
	"resistecc/internal/analysis/lockorder"
	"resistecc/internal/analysis/metrichygiene"
	"resistecc/internal/analysis/mustclose"
	"resistecc/internal/analysis/syncerr"
	"resistecc/internal/analysis/wgbalance"
)

// All returns every registered analyzer, in stable order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		atomicmix.Analyzer,
		chandisc.Analyzer,
		ctxflow.Analyzer,
		determinism.Analyzer,
		erridentity.Analyzer,
		floateq.Analyzer,
		goroutinelife.Analyzer,
		hotpath.Analyzer,
		lockguard.Analyzer,
		lockorder.Analyzer,
		metrichygiene.Analyzer,
		mustclose.Analyzer,
		syncerr.Analyzer,
		wgbalance.Analyzer,
	}
}
