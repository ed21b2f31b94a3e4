package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resistecc"
	"resistecc/internal/trace"
)

// identityIDs is the toExternal mapping of the generated test graph: the
// servers under test are built with graph.ComposeIDs(n, nil, nil), so
// external ids equal internal indices.
func identityIDs(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// traceTestIndex builds a fresh replay target with the exact build options
// the test servers use — determinism means this index must answer every
// recorded operation bit-identically.
func traceTestIndex(t *testing.T) *resistecc.DynamicIndex {
	t.Helper()
	return traceTarget(t, "")
}

// traceTarget builds a replay target over the test servers' graph with
// their build options: durable in dataDir, or in memory when dataDir is
// empty.
func traceTarget(t *testing.T, dataDir string) *resistecc.DynamicIndex {
	t.Helper()
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64),
		resistecc.WithSeed(5), resistecc.WithMaxHullVertices(24),
	}
	var d *resistecc.DynamicIndex
	if dataDir == "" {
		d, err = resistecc.NewDynamicIndex(context.Background(), g, opts...)
	} else {
		d, _, err = resistecc.OpenDynamicIndex(context.Background(), dataDir, g, opts...)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// TestTraceRecordReplayRoundTrip is the round-trip determinism contract:
// a mixed workload recorded through the serving layer replays bit-exactly —
// every generation and digest — against a fresh index built from the same
// graph and seeds, both in-process and over HTTP against a second server.
func TestTraceRecordReplayRoundTrip(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "ops.trc")
	srv := durableServerCfg(t, t.TempDir(), func(cfg *serverConfig) {
		cfg.TraceOut = tracePath
		cfg.TraceSync = 8
	})
	h := srv.handler(log.New(io.Discard, "", 0))

	type step struct {
		method, url, body string
		wantStatus        int
		op                trace.Op
	}
	steps := []step{
		{http.MethodGet, "/v1/eccentricity?node=3", "", 200, trace.OpQuery},
		{http.MethodGet, "/v1/eccentricity?node=0,7,33,119", "", 200, trace.OpBatchQuery},
		{http.MethodPost, "/v1/edges", `{"u":0,"v":100}`, 200, trace.OpAddEdge},
		{http.MethodGet, "/v1/eccentricity?node=0,100", "", 200, trace.OpBatchQuery},
		{http.MethodPost, "/v1/edges", `{"u":5,"v":80}`, 200, trace.OpAddEdge},
		{http.MethodDelete, "/v1/edges?u=0&v=100", "", 200, trace.OpRemoveEdge},
		{http.MethodPost, "/v1/rebuild", "", 202, trace.OpRebuild},
		{http.MethodGet, "/v1/eccentricity?node=7", "", 200, trace.OpQuery},
		{http.MethodPost, "/v1/checkpoint", "", 200, trace.OpCheckpoint},
		{http.MethodGet, "/v1/eccentricity?node=42,3", "", 200, trace.OpBatchQuery},
	}
	wantByOp := map[trace.Op]int{}
	for _, s := range steps {
		rec := do(t, h, s.method, s.url, s.body)
		if rec.Code != s.wantStatus {
			t.Fatalf("%s %s: status %d (%s)", s.method, s.url, rec.Code, rec.Body.String())
		}
		wantByOp[s.op]++
		if s.op == trace.OpRebuild {
			// The recorded run is serial: the rebuild finishes before the
			// next operation, exactly as replay will execute it.
			if err := srv.current().dyn.WaitIdle(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.close() // flushes and fsyncs the recorder

	recs, info, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(steps) || info.TornBytes != 0 {
		t.Fatalf("recorded trace: %+v, want %d records and no torn tail", info, len(steps))
	}
	for op, want := range wantByOp {
		if got := info.ByOp[op]; got != want {
			t.Fatalf("recorded %d %s ops, want %d", got, op, want)
		}
	}
	for _, r := range recs {
		if r.Gen == 0 || r.Digest == 0 {
			t.Fatalf("record %d (%s) is unverified: gen %d digest %d", r.Seq, r.Op, r.Gen, r.Digest)
		}
	}

	// In-process replay against a fresh same-seed index: bit-exact.
	d := traceTestIndex(t)
	rep, err := trace.Replay(context.Background(), recs, resistecc.TraceExecutor(d, identityIDs(120)), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("local replay diverged: %+v", rep)
	}
	if rep.Checked != len(recs) || rep.Skipped != 0 {
		t.Fatalf("local replay checked %d of %d digests (skipped %d)", rep.Checked, len(recs), rep.Skipped)
	}

	// HTTP replay against a second fresh server: the live surface reproduces
	// the same bits, rebuild completion observed through /v1/healthz.
	srv2 := durableServer(t, t.TempDir())
	defer srv2.close()
	ts := httptest.NewServer(srv2.handler(log.New(io.Discard, "", 0)))
	defer ts.Close()
	rep2, err := trace.Replay(context.Background(), recs, &trace.HTTPExecutor{Base: ts.URL}, trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.OK() {
		t.Fatalf("HTTP replay diverged: %+v", rep2)
	}
	if rep2.Checked != len(recs) {
		t.Fatalf("HTTP replay checked %d of %d digests", rep2.Checked, len(recs))
	}
}

// TestTraceCheckpointAfterTrippedRebuild: a checkpoint right after
// POST /v1/rebuild runs behind the rebuild it queued, on the recording
// server and on every replay target alike. The server records an add, its
// removal, the rebuild, the checkpoint and a read; the checkpoint record
// and the read after it replay exactly, against a durable and an in-memory
// index and over HTTP.
func TestTraceCheckpointAfterTrippedRebuild(t *testing.T) {
	ctx := context.Background()
	for run := 0; run < 20; run++ {
		tracePath := filepath.Join(t.TempDir(), "ops.trc")
		srv := durableServerCfg(t, t.TempDir(), func(cfg *serverConfig) { cfg.TraceOut = tracePath })
		t.Cleanup(srv.close)
		h := srv.handler(log.New(io.Discard, "", 0))
		for _, s := range []struct {
			method, url, body string
			want              int
		}{
			{http.MethodPost, "/v1/edges", `{"u":33,"v":119}`, http.StatusOK},
			{http.MethodDelete, "/v1/edges?u=33&v=119", "", http.StatusOK},
			{http.MethodPost, "/v1/rebuild", "", http.StatusAccepted},
			{http.MethodPost, "/v1/checkpoint", "", http.StatusOK},
			{http.MethodGet, "/v1/eccentricity?node=33,119", "", http.StatusOK},
		} {
			if rec := do(t, h, s.method, s.url, s.body); rec.Code != s.want {
				t.Fatalf("%s %s: %d (%s), want %d", s.method, s.url, rec.Code, rec.Body.String(), s.want)
			}
		}
		srv.close() // flushes the recorder
		recs, _, err := trace.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 5 {
			t.Fatalf("recorded %d operations, want 5", len(recs))
		}

		target := durableServer(t, t.TempDir())
		t.Cleanup(target.close)
		ts := httptest.NewServer(target.handler(log.New(io.Discard, "", 0)))
		t.Cleanup(ts.Close)
		targets := []struct {
			name string
			exec trace.Executor
		}{
			{"durable index", resistecc.TraceExecutor(traceTarget(t, t.TempDir()), identityIDs(120))},
			{"in-memory index", resistecc.TraceExecutor(traceTestIndex(t), identityIDs(120))},
			{"HTTP", &trace.HTTPExecutor{Base: ts.URL}},
		}
		for _, tg := range targets {
			rep, err := trace.Replay(ctx, recs, tg.exec, trace.ReplayOptions{})
			if err != nil {
				t.Fatalf("run %d, %s: %v", run, tg.name, err)
			}
			if !rep.OK() || rep.Checked != len(recs) {
				t.Fatalf("run %d, %s: replay %+v, want all %d records checked and matching", run, tg.name, rep, len(recs))
			}
		}
	}
}

// TestTraceSmokeReplicatedLoad drives a generated open-loop workload through
// the router of a full replica set: zero transport errors, zero 5xx, both
// replicas converge to the writer's generation afterwards, and the router's
// own -trace-out recorded the proxied traffic. This is the capacity smoke CI
// runs via make trace-smoke.
func TestTraceSmokeReplicatedLoad(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "router.trc")
	rs := startReplSetCfg(t, func(cfg *Config) {
		cfg.Server.TraceOut = tracePath
	})
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}

	w := trace.Workload{
		Nodes: 120, Ops: 400, Seed: 9,
		MaxBatch: 4, MutationRate: 0.05, RemoveFraction: 0.25,
		CheckpointEvery: 100,
	}
	recs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Concurrency stays well under MaxInFlight (128): shed load would be a
	// 503 and fail the zero-5xx assertion below.
	rep, err := trace.RunLoad(context.Background(), recs, rs.routerTS.URL,
		trace.LoadOptions{Concurrency: 32, AsFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors != 0 || rep.Errors != 0 {
		t.Fatalf("load run: %d transport errors, %d 5xx answers (%+v)", rep.Errors, rep.ServerErrors, rep)
	}
	if rep.Ops != len(recs) {
		t.Fatalf("dispatched %d of %d ops", rep.Ops, len(recs))
	}
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	if st := rs.router.rec.Stats(); st.Records == 0 || st.WriteFailures != 0 {
		t.Fatalf("router recorder stats: %+v", st)
	}
	t.Logf("trace smoke: %d ops in %s (%.0f req/s), p50 %s p99 %s, %d rejected",
		rep.Ops, rep.Duration, rep.AchievedRate, rep.P50, rep.P99, rep.Rejected)
}

// TestTraceMetricsSurfaced pins the observability satellite: the replica
// exports the canonical repl_lag_seq gauge, the router exports per-backend
// generation gauges, and a recording server exports trace counters.
func TestTraceMetricsSurfaced(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "router.trc")
	rs := startReplSetCfg(t, func(cfg *Config) {
		cfg.Server.TraceOut = tracePath
	})
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	// One proxied query so the router has recorded at least one operation.
	code, body, _ := httpGet(t, rs.routerTS.URL+"/v1/eccentricity?node=0", nil)
	if code != http.StatusOK {
		t.Fatalf("routed query: %d (%s)", code, body)
	}

	_, metrics, _ := httpGet(t, rs.replicaTSs[0].URL+"/v1/metrics", nil)
	for _, want := range []string{
		"# TYPE reccd_repl_lag_seq gauge",
		"reccd_repl_lag_seq 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("replica metrics missing %q:\n%s", want, metrics)
		}
	}

	_, metrics, _ = httpGet(t, rs.routerTS.URL+"/v1/metrics", nil)
	for _, want := range []string{
		`reccd_router_backend_generation{backend="0"}`,
		`reccd_router_backend_generation{backend="1"}`,
		"reccd_trace_records_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("router metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestTraceRecorderAcrossRoles asserts a replica with -trace-out records its
// read traffic too — capacity traces can be captured at any tier.
func TestTraceRecorderAcrossRoles(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "replica.trc")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	writer := durableServer(t, t.TempDir())
	defer writer.close()
	writerTS := httptest.NewServer(writer.handler(log.New(io.Discard, "", 0)))
	defer writerTS.Close()

	cfg := Config{
		Role:         roleReplica,
		Upstream:     writerTS.URL,
		PollInterval: 20 * time.Millisecond,
		Server:       defaultConfig(),
	}
	cfg.Server.TraceOut = tracePath
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	replica, err := newReplicaServer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(replica.handler(log.New(io.Discard, "", 0)))
	waitConverged(t, writer, replica)
	for i := 0; i < 5; i++ {
		code, body, _ := httpGet(t, ts.URL+fmt.Sprintf("/v1/eccentricity?node=%d", i), nil)
		if code != http.StatusOK {
			t.Fatalf("replica query %d: %d (%s)", i, code, body)
		}
	}
	ts.Close()
	replica.close()

	recs, info, err := trace.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 5 || info.ByOp[trace.OpQuery] != 5 {
		t.Fatalf("replica trace: %+v", info)
	}
	// Replica-recorded queries replay bit-exactly like writer-recorded ones.
	d := traceTestIndex(t)
	rep, err := trace.Replay(context.Background(), recs, resistecc.TraceExecutor(d, identityIDs(120)), trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Checked != 5 {
		t.Fatalf("replay of replica trace: %+v", rep)
	}
}
