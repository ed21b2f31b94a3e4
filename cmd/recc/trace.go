package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"resistecc"
	"resistecc/internal/trace"
)

// cmdReplay re-executes a recorded trace (reccd -trace-out) and verifies
// every response against the recorded generation and digest. The target is
// either a live server (-target) or a fresh index built locally from the same
// edge list and build flags the recording server used (-in); in both cases a
// bit-exact run exits 0 and any divergence is an error.
func cmdReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	tracePath := fs.String("trace", "", "trace file to replay (required)")
	target := fs.String("target", "", "replay over HTTP against this base URL (e.g. http://localhost:8080)")
	in := fs.String("in", "", "replay locally against a fresh index built from this edge list")
	eps := fs.Float64("eps", 0.2, "approximation parameter (local replay; match the recording server)")
	dim := fs.Int("dim", 128, "sketch dimension override (local replay)")
	hullCap := fs.Int("hullcap", 64, "max hull vertices (local replay)")
	seed := fs.Int64("seed", 1, "sketch seed (local replay)")
	timed := fs.Bool("timed", false, "honor the recorded arrival deltas instead of replaying as fast as possible")
	maxMismatches := fs.Int("max-mismatches", 10, "stop after this many divergences (0 = replay everything)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("-trace is required")
	}
	if (*target == "") == (*in == "") {
		return fmt.Errorf("need exactly one of -target or -in")
	}

	recs, info, err := trace.ReadFile(*tracePath)
	if err != nil {
		return err
	}
	if info.Records == 0 {
		return fmt.Errorf("%s holds no valid trace records", *tracePath)
	}
	if info.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "recc: %s has a %d-byte torn tail; replaying the %d-record valid prefix\n",
			*tracePath, info.TornBytes, info.Records)
	}

	var ex trace.Executor
	if *target != "" {
		ex = &trace.HTTPExecutor{Base: *target}
	} else {
		ex, err = localExecutor(ctx, *in, *eps, *dim, *seed, *hullCap)
		if err != nil {
			return err
		}
	}

	rep, err := trace.Replay(ctx, recs, ex, trace.ReplayOptions{Timed: *timed, MaxMismatches: *maxMismatches})
	if err != nil {
		return err
	}
	printReplayReport(rep)
	if !rep.OK() {
		return fmt.Errorf("replay diverged: %d mismatches, %d failures", len(rep.Mismatches), rep.Failures)
	}
	return nil
}

// localExecutor builds the replay target the way reccd builds its serving
// index: load the edge list, restrict to the LCC, and translate the trace's
// external ids through the composed id map.
func localExecutor(ctx context.Context, in string, eps float64, dim int, seed int64, hullCap int) (trace.Executor, error) {
	lcc, ids, err := loadLCC(in)
	if err != nil {
		return nil, err
	}
	opts := []resistecc.Option{
		resistecc.WithEpsilon(eps), resistecc.WithDim(dim),
		resistecc.WithSeed(seed), resistecc.WithMaxHullVertices(hullCap),
	}
	d, err := resistecc.NewDynamicIndex(ctx, lcc, opts...)
	if err != nil {
		return nil, err
	}
	return resistecc.TraceExecutor(d, ids.ToExternal), nil
}

func printReplayReport(rep *trace.Report) {
	fmt.Printf("replayed %d ops in %s\n", rep.Ops, rep.Duration.Round(time.Millisecond))
	printByOp(rep.ByOp[:])
	fmt.Printf("  verified    %d digests (%d records carried none)\n", rep.Checked, rep.Skipped)
	if rep.Rejected > 0 {
		fmt.Printf("  rejected    %d unverified ops (legitimate conflicts under generated load)\n", rep.Rejected)
	}
	if rep.Failures > 0 {
		fmt.Printf("  FAILED      %d verified ops errored; first: %s\n", rep.Failures, rep.FirstFailure)
	}
	for _, m := range rep.Mismatches {
		fmt.Printf("  DIVERGED    %s\n", m)
	}
	if rep.OK() {
		fmt.Println("  result      bit-exact")
	}
}

// cmdLoadgen synthesizes a deterministic open-loop workload and either writes
// it as a trace file (-out, replayable and inspectable like a recorded one),
// drives it against a live deployment (-target), or both. A load run that
// produced transport errors or 5xx answers exits non-zero — "zero 5xx at the
// stated rate" is the capacity claim this tool checks.
func cmdLoadgen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	nodes := fs.Int("nodes", 0, "external id space [0,nodes) the workload draws from (required unless -trace)")
	ops := fs.Int("ops", 10000, "number of operations to generate")
	seed := fs.Int64("seed", 1, "workload seed (same spec + seed = same trace, byte for byte)")
	rate := fs.Float64("rate", 0, "target arrival rate in ops/sec (0 = zero-delay trace)")
	zipfS := fs.Float64("zipf-s", 0, "zipf skew s > 1 (0 = default 1.2)")
	zipfV := fs.Float64("zipf-v", 0, "zipf offset v >= 1 (0 = default 8)")
	batch := fs.Int("batch", 1, "max batch-query size (1 = single-node queries only)")
	mutate := fs.Float64("mutate", 0, "fraction of ops that mutate the graph")
	remove := fs.Float64("remove", 0.25, "fraction of mutations that remove a previously added edge")
	rebuildEvery := fs.Int("rebuild-every", 0, "insert an explicit rebuild every N ops (0 = never)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "insert a checkpoint every N ops (0 = never)")
	tracePath := fs.String("trace", "", "drive an existing trace file instead of generating")
	out := fs.String("out", "", "write the generated trace to this file")
	target := fs.String("target", "", "drive the workload against this base URL")
	concurrency := fs.Int("concurrency", 64, "max in-flight requests when driving -target")
	asFast := fs.Bool("as-fast", false, "ignore arrival deltas; dispatch as fast as concurrency allows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" && *target == "" {
		return fmt.Errorf("need -out and/or -target (a workload must go somewhere)")
	}

	var recs []trace.Record
	if *tracePath != "" {
		var info *trace.Info
		var err error
		recs, info, err = trace.ReadFile(*tracePath)
		if err != nil {
			return err
		}
		if info.Records == 0 {
			return fmt.Errorf("%s holds no valid trace records", *tracePath)
		}
	} else {
		if *nodes == 0 {
			return fmt.Errorf("-nodes is required when generating (or pass -trace)")
		}
		w := trace.Workload{
			Nodes: *nodes, Ops: *ops, Seed: *seed,
			ZipfS: *zipfS, ZipfV: *zipfV,
			MaxBatch: *batch, MutationRate: *mutate, RemoveFraction: *remove,
			RebuildEvery: *rebuildEvery, CheckpointEvery: *checkpointEvery,
			Rate: *rate,
		}
		var err error
		recs, err = w.Generate()
		if err != nil {
			return err
		}
	}

	if *out != "" {
		if err := trace.WriteFile(*out, recs); err != nil {
			return err
		}
		fi, err := os.Stat(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recc: wrote %s: %d records, %d bytes\n", *out, len(recs), fi.Size())
	}
	if *target == "" {
		return nil
	}

	rep, err := trace.RunLoad(ctx, recs, *target, trace.LoadOptions{Concurrency: *concurrency, AsFast: *asFast})
	if err != nil {
		return err
	}
	fmt.Printf("drove %d ops in %s (%.1f ops/sec achieved)\n",
		rep.Ops, rep.Duration.Round(time.Millisecond), rep.AchievedRate)
	printByOp(rep.ByOp[:])
	fmt.Printf("  latency     p50 %s  p90 %s  p99 %s\n",
		rep.P50.Round(time.Microsecond), rep.P90.Round(time.Microsecond), rep.P99.Round(time.Microsecond))
	fmt.Printf("  rejected    %d (non-2xx below 500)\n", rep.Rejected)
	fmt.Printf("  errors      %d transport, %d server (5xx)\n", rep.Errors, rep.ServerErrors)
	if rep.ServerErrors > 0 || rep.Errors > 0 {
		return fmt.Errorf("load run saw %d transport errors and %d 5xx answers", rep.Errors, rep.ServerErrors)
	}
	return nil
}

// printByOp prints non-zero per-operation counts (byOp is indexed by Op),
// one aligned row each.
func printByOp(byOp []int) {
	for op := trace.OpQuery; int(op) < len(byOp); op++ {
		if n := byOp[op]; n > 0 {
			fmt.Printf("  %-11s %d\n", op, n)
		}
	}
}
