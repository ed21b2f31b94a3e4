# Developer / CI entry points. `make check` is the gate: CI's gofmt check,
# vet, the recclint static-analysis suite, and the full test suite under the
# race detector (the reccd server paths are deliberately concurrent).

GO ?= go

.PHONY: check fmt build vet lint lint-fix lint-sarif lint-v3 lint-v4 test race repl-smoke trace-smoke bench bench-json bench-trend

check: fmt vet lint race

# CI's first step, verbatim: fail if gofmt would reformat any file.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo-specific invariant checkers, all twelve: atomicmix, chandisc,
# ctxflow, determinism, erridentity, floateq, goroutinelife, lockguard,
# lockorder, metrichygiene, syncerr, wgbalance (see internal/analysis and
# DESIGN.md §9, §13 and §14). The ./... pattern
# includes internal/analysis itself, so the suite lints its own framework
# and analyzers. -budget fails the run if any single analyzer exceeds the
# ceiling, keeping lint wall time an enforced contract; add -v for the
# slowest-first per-analyzer breakdown.
lint:
	$(GO) run ./cmd/recclint -budget=30s ./...

# Apply every suggested fix (ctxflow rewrites, atomicmix typed atomics,
# erridentity errors.Is), gofmt-formatting the touched files in place.
lint-fix:
	$(GO) run ./cmd/recclint -fix ./...

# SARIF 2.1.0 on stdout, for CI code-scanning upload.
lint-sarif:
	$(GO) run ./cmd/recclint -format=sarif ./...

# Fixture smoke for the v3 concurrency analyzers only: each package's test
# runs its analyzer over the // want fixture module under testdata/src,
# exercising the spawn/capture dataflow substrate without type-checking the
# whole repository (that is `make lint`).
lint-v3:
	$(GO) test -count=1 ./internal/analysis/goroutinelife/ ./internal/analysis/chandisc/ \
		./internal/analysis/wgbalance/ ./internal/analysis/atomicmix/

# Fixture smoke for the v4 analyzers: metrics registration hygiene and
# sentinel-error identity (including the erridentity autofix round trip in
# cmd/recclint's tests). The wire formats and the HTTP surface are checked
# by tests in the packages that own them (DESIGN.md §14).
lint-v4:
	$(GO) test -count=1 ./internal/analysis/metrichygiene/ ./internal/analysis/erridentity/

test:
	$(GO) test ./...

# internal/experiments legitimately exceeds the 10m default under the race
# detector on slower machines (Table 3 smoke runs the full MINRECC pipeline),
# so give the suite explicit headroom.
race:
	$(GO) test -race -timeout 30m ./...

# End-to-end replication smoke: boots a durable writer, two WAL-tailing
# replicas and a consistent-hash router as real HTTP servers, then asserts
# bit-identical replica answers, read-your-writes through the router,
# exact updates (a near-bridge removal included) tailed with no resync,
# resync after a requested writer rebuild (the only kind there is) and
# zero 5xx across a replica kill/restart.
repl-smoke:
	$(GO) test -race -count=1 -run '^TestRepl' ./cmd/reccd/

# End-to-end trace smoke: records a mixed workload through the serving layer
# and replays it bit-exactly against fresh indexes (in-process and over HTTP),
# then drives a generated open-loop workload through the PR-7 replica set
# asserting zero 5xx and generation convergence.
trace-smoke:
	$(GO) test -race -count=1 -run '^TestTrace' ./cmd/reccd/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Machine-readable bench trajectory (BENCH_10.json): at batch sizes 1/16/256,
# the batch engine's served path (BenchmarkBatchQuery*, which repeats one
# batch on one index and so answers from its warm witness table), the blocked
# kernel alone (BenchmarkBatchKernel*) and the serial per-node baseline;
# the ColdBuild/WarmStart durability carry-overs, and the trace-driven
# loadgen capacity probes (single node and the replicated tier; their req/s
# and latency quantiles land in the record's metrics map). The one-shot runs
# use -benchtime=1x because each iteration is a full cold build or load run;
# cmd/benchjson merges all runs into one JSON record list.
bench-json:
	{ $(GO) test -run='^$$' -bench='^BenchmarkBatch' -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^Benchmark(ColdBuild|WarmStart)$$' -benchtime=1x -benchmem . ; \
	  $(GO) test -run='^$$' -bench='^BenchmarkLoadgen' -benchtime=1x ./cmd/reccd/ ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_10.json

# Walk the committed BENCH_*.json trajectory oldest to newest and fail on
# any tracked metric regressing more than 20% between a benchmark's
# consecutive appearances. CI runs this against the committed records (never
# against freshly benchmarked ones — runner hardware varies), so degrading
# the trajectory requires a deliberate rewrite of the record files.
bench-trend:
	$(GO) run ./cmd/benchjson -trend
