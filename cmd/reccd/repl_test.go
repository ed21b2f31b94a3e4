package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"resistecc/internal/obs"
)

// replSet is a full replication tier under test: one durable writer, two
// replicas tailing it, and a router spreading reads over them — each a real
// reccd server behind an httptest listener.
type replSet struct {
	writer     *server
	writerTS   *httptest.Server
	replicas   []*server
	replicaTSs []*httptest.Server
	router     *routerServer
	routerTS   *httptest.Server
	cancel     context.CancelFunc
}

// startReplica boots one replica against upstream and serves it. The fast
// poll keeps convergence waits short.
func startReplica(t testing.TB, ctx context.Context, upstream string) (*server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Role:         roleReplica,
		Upstream:     upstream,
		PollInterval: 20 * time.Millisecond,
		Server:       defaultConfig(),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := newReplicaServer(ctx, cfg)
	if err != nil {
		t.Fatalf("starting replica: %v", err)
	}
	ts := httptest.NewServer(srv.handler(log.New(io.Discard, "", 0)))
	return srv, ts
}

// startReplSet assembles writer + 2 replicas + router and tears the whole
// tier down at cleanup.
func startReplSet(t testing.TB) *replSet {
	t.Helper()
	return startReplSetCfg(t, nil)
}

// startReplSetCfg is startReplSet with a hook over the router's Config
// (trace recording, limits) applied before construction.
func startReplSetCfg(t testing.TB, mutateRouter func(*Config)) *replSet {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	rs := &replSet{cancel: cancel}
	// Cleanups run last-in first-out: registering the data dir first makes
	// the teardown stop the writer before the directory is removed.
	dir := t.TempDir()
	t.Cleanup(func() { rs.teardown() })

	rs.writer = durableServer(t, dir)
	rs.writerTS = httptest.NewServer(rs.writer.handler(log.New(io.Discard, "", 0)))

	for i := 0; i < 2; i++ {
		srv, ts := startReplica(t, ctx, rs.writerTS.URL)
		rs.replicas = append(rs.replicas, srv)
		rs.replicaTSs = append(rs.replicaTSs, ts)
	}

	rcfg := Config{
		Role:         roleRouter,
		Upstream:     rs.writerTS.URL,
		Replicas:     []string{rs.replicaTSs[0].URL, rs.replicaTSs[1].URL},
		PollInterval: 20 * time.Millisecond,
		Server:       defaultConfig(),
	}
	if mutateRouter != nil {
		mutateRouter(&rcfg)
	}
	if err := rcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	router, err := newRouterServer(ctx, rcfg)
	if err != nil {
		t.Fatalf("starting router: %v", err)
	}
	rs.router = router
	rs.routerTS = httptest.NewServer(rs.router.handler(log.New(io.Discard, "", 0)))
	return rs
}

func (rs *replSet) teardown() {
	if rs.routerTS != nil {
		rs.routerTS.Close()
	}
	if rs.router != nil {
		rs.router.close()
	}
	for _, ts := range rs.replicaTSs {
		ts.Close()
	}
	for _, srv := range rs.replicas {
		srv.close()
	}
	if rs.writerTS != nil {
		rs.writerTS.Close()
	}
	if rs.writer != nil {
		rs.writer.close()
	}
	rs.cancel()
}

// httpGet fetches url and returns status, body and the response header.
func httpGet(t testing.TB, url string, hdr map[string]string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// waitConverged blocks until the replica has applied the writer's sequence
// and matches its generation.
func waitConverged(t testing.TB, w *server, r *server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		wsv, rsv := w.current(), r.current()
		if rsv != nil &&
			rsv.dyn.Seq() == wsv.dyn.Seq() &&
			rsv.dyn.Snapshot().Generation == wsv.dyn.Snapshot().Generation {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica never converged: writer seq %d gen %d, replica %+v",
		w.current().dyn.Seq(), w.current().dyn.Snapshot().Generation, r.tailer.Stats())
}

// The replica serves bit-identical answers to the writer at the same
// generation: same eccentricities, same resistances, same summary, byte for
// byte — the follower never rebuilds, so its state is a pure function of the
// shipped snapshot plus the applied WAL.
func TestReplicaBitIdenticalToWriter(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	paths := []string{
		"/v1/eccentricity?node=0,7,33,119",
		"/v1/resistance?u=0&v=64",
		"/v1/summary",
	}
	for _, p := range paths {
		wCode, wBody, wHdr := httpGet(t, rs.writerTS.URL+p, nil)
		if wCode != http.StatusOK {
			t.Fatalf("writer %s: %d (%s)", p, wCode, wBody)
		}
		for i, ts := range rs.replicaTSs {
			rCode, rBody, rHdr := httpGet(t, ts.URL+p, nil)
			if rCode != http.StatusOK {
				t.Fatalf("replica %d %s: %d (%s)", i, p, rCode, rBody)
			}
			if rBody != wBody {
				t.Fatalf("replica %d diverges on %s:\n%s\nvs writer\n%s", i, p, rBody, wBody)
			}
			if rg, wg := rHdr.Get("X-Index-Generation"), wHdr.Get("X-Index-Generation"); rg != wg {
				t.Fatalf("replica %d generation %s, writer %s", i, rg, wg)
			}
		}
	}
}

// Mutations through the router land on the writer, replicas converge, and
// X-Min-Generation enforces read-your-writes: a read carrying the mutation's
// generation is never answered by a backend below it.
func TestReplSetMutationConvergence(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}

	// Replicas and the router refuse direct writes with the typed error.
	for i, ts := range rs.replicaTSs {
		resp, err := http.Post(ts.URL+"/v1/edges", "application/json", strings.NewReader(`{"u":0,"v":100}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || !strings.Contains(string(b), `"not_writer"`) {
			t.Fatalf("replica %d accepted a mutation: %d (%s)", i, resp.StatusCode, b)
		}
	}

	// Through the router the same mutation reaches the writer.
	resp, err := http.Post(rs.routerTS.URL+"/v1/edges", "application/json", strings.NewReader(`{"u":0,"v":100}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutation via router: %d (%s)", resp.StatusCode, b)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Index-Generation"), 10, 64)
	if err != nil || gen == 0 {
		t.Fatalf("mutation response generation header %q", resp.Header.Get("X-Index-Generation"))
	}

	// Read-your-writes: every routed read at the mutation's floor answers
	// from a generation at least that new.
	for i := 0; i < 20; i++ {
		code, body, hdr := httpGet(t, rs.routerTS.URL+fmt.Sprintf("/v1/eccentricity?node=%d", i),
			map[string]string{"X-Min-Generation": strconv.FormatUint(gen, 10)})
		if code != http.StatusOK {
			t.Fatalf("routed read %d: %d (%s)", i, code, body)
		}
		got, err := strconv.ParseUint(hdr.Get("X-Index-Generation"), 10, 64)
		if err != nil || got < gen {
			t.Fatalf("routed read %d served generation %q below floor %d (by %s)",
				i, hdr.Get("X-Index-Generation"), gen, hdr.Get("X-Served-By"))
		}
	}

	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	// After convergence replicas serve the post-mutation state byte-identically.
	_, wBody, _ := httpGet(t, rs.writerTS.URL+"/v1/eccentricity?node=0,100", nil)
	for i, ts := range rs.replicaTSs {
		_, rBody, _ := httpGet(t, ts.URL+"/v1/eccentricity?node=0,100", nil)
		if rBody != wBody {
			t.Fatalf("replica %d diverges after mutation:\n%s\nvs\n%s", i, rBody, wBody)
		}
	}
}

// A writer rebuild plus checkpoint moves the writer to a state the replicas
// cannot reach by tailing alone; the caught-up generation-mismatch rule makes
// them re-base on the new snapshot.
func TestReplSetResyncsAfterWriterRebuild(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	resyncsBefore := rs.replicas[0].tailer.Stats().Resyncs

	// Force a rebuild and persist it: the writer's generation moves without
	// any WAL records to tail.
	resp, err := http.Post(rs.writerTS.URL+"/v1/rebuild", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := rs.writer.current().dyn.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(rs.writerTS.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	if after := rs.replicas[0].tailer.Stats().Resyncs; after <= resyncsBefore {
		t.Fatalf("expected a resync after rebuild+checkpoint (resyncs %d -> %d)", resyncsBefore, after)
	}
	_, wBody, _ := httpGet(t, rs.writerTS.URL+"/v1/summary", nil)
	for i, ts := range rs.replicaTSs {
		_, rBody, _ := httpGet(t, ts.URL+"/v1/summary", nil)
		if rBody != wBody {
			t.Fatalf("replica %d diverges after resync:\n%s\nvs\n%s", i, rBody, wBody)
		}
	}
}

// Killing a replica mid-traffic never surfaces a 5xx through the router: the
// health loop ejects it and in-flight retries move to the next candidate. A
// restarted replica rejoins and serves again.
func TestReplSetSurvivesReplicaFailure(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}

	// Kill replica 0 without warning: its listener drops connections.
	rs.replicaTSs[0].Close()
	rs.replicas[0].close()

	// Every routed read during and after the failure must answer 200 — the
	// router retries onto the surviving replica or the writer.
	for i := 0; i < 50; i++ {
		code, body, _ := httpGet(t, rs.routerTS.URL+fmt.Sprintf("/v1/eccentricity?node=%d", i%120), nil)
		if code >= 500 {
			t.Fatalf("request %d: %d (%s) during replica failure", i, code, body)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, code, body)
		}
	}

	// A fresh replica (new process, same upstream) rejoins and converges;
	// swapping it into the dead one's slot lets teardown own its lifetime.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, ts := startReplica(t, ctx, rs.writerTS.URL)
	rs.replicas[0], rs.replicaTSs[0] = srv, ts
	waitConverged(t, rs.writer, srv)
	code, body, _ := httpGet(t, ts.URL+"/v1/eccentricity?node=0", nil)
	if code != http.StatusOK {
		t.Fatalf("restarted replica: %d (%s)", code, body)
	}
	_, wBody, _ := httpGet(t, rs.writerTS.URL+"/v1/eccentricity?node=0", nil)
	if body != wBody {
		t.Fatalf("restarted replica diverges:\n%s\nvs\n%s", body, wBody)
	}
}

// The replication status endpoint reports each role's view of the tier.
func TestReplStatusEndpoints(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	_, body, _ := httpGet(t, rs.writerTS.URL+"/v1/repl/status", nil)
	if !strings.Contains(body, `"role":"writer"`) || !strings.Contains(body, `"source"`) {
		t.Fatalf("writer status: %s", body)
	}
	_, body, _ = httpGet(t, rs.replicaTSs[0].URL+"/v1/repl/status", nil)
	if !strings.Contains(body, `"role":"replica"`) || !strings.Contains(body, `"tail"`) {
		t.Fatalf("replica status: %s", body)
	}
	code, body, _ := httpGet(t, rs.routerTS.URL+"/v1/healthz", nil)
	if code != http.StatusOK || !strings.Contains(body, `"role":"router"`) {
		t.Fatalf("router health: %d (%s)", code, body)
	}
}

// TestReplLagGaugeRetired pins the retirement of the unsuffixed repl_lag
// gauge: a replica exports only the canonical repl_lag_seq.
func TestReplLagGaugeRetired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writer := durableServer(t, t.TempDir())
	defer writer.close()
	writerTS := httptest.NewServer(writer.handler(log.New(io.Discard, "", 0)))
	defer writerTS.Close()

	srv, ts := startReplica(t, ctx, writerTS.URL)
	defer ts.Close()
	defer srv.close()
	_, metrics, _ := httpGet(t, ts.URL+"/v1/metrics", nil)
	if !strings.Contains(metrics, "# TYPE reccd_repl_lag_seq gauge") {
		t.Fatalf("canonical repl_lag_seq gauge missing:\n%s", metrics)
	}
	// The space after the name excludes repl_lag_seq's own lines but still
	// catches both the "# TYPE reccd_repl_lag gauge" header and any sample.
	if strings.Contains(metrics, "reccd_repl_lag ") {
		t.Fatalf("retired repl_lag alias exported:\n%s", metrics)
	}
}

// envelopeOf decodes body as the canonical error envelope, failing the test
// when either field is empty.
func envelopeOf(t *testing.T, status int, body string) obs.ErrorEnvelope {
	t.Helper()
	var env obs.ErrorEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("non-2xx body (%d) is not the error envelope: %v (%s)", status, err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("non-2xx body (%d) missing code/message: %s", status, body)
	}
	return env
}

// TestReplEnvelopeOnEveryNon2xx pins the error-envelope contract for the
// router and replica roles: unknown paths, wrong methods, refused writes,
// not-yet-synced reads and a degraded router health check all answer with
// {"error":{"code":…,"message":…}} — the same shape the writer serves.
func TestReplEnvelopeOnEveryNon2xx(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}

	// Router: mux-produced 404 and 405 are rewritten into the envelope.
	code, body, _ := httpGet(t, rs.routerTS.URL+"/v1/nope", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown router path: %d (%s)", code, body)
	}
	if env := envelopeOf(t, code, body); env.Error.Code != "not_found" {
		t.Fatalf("router 404 code %q", env.Error.Code)
	}
	resp, err := http.Post(rs.routerTS.URL+"/v1/healthz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST healthz via router: %d (%s)", resp.StatusCode, b)
	}
	if env := envelopeOf(t, resp.StatusCode, string(b)); env.Error.Code != "method_not_allowed" {
		t.Fatalf("router 405 code %q", env.Error.Code)
	}

	// Replica: refused mutation (403 not_writer) carries the envelope.
	resp, err = http.Post(rs.replicaTSs[0].URL+"/v1/edges", "application/json", strings.NewReader(`{"u":0,"v":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica mutation: %d (%s)", resp.StatusCode, b)
	}
	if env := envelopeOf(t, resp.StatusCode, string(b)); env.Error.Code != "not_writer" {
		t.Fatalf("replica 403 code %q", env.Error.Code)
	}
}

// TestRouterDegradedHealthEnvelope boots a router whose backends do not
// exist: the 503 degraded health answer must carry the error envelope next
// to its per-backend diagnostics.
func TestRouterDegradedHealthEnvelope(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Role:         roleRouter,
		Upstream:     "http://127.0.0.1:1",
		Replicas:     []string{"http://127.0.0.1:1"},
		PollInterval: time.Hour, // backends start unhealthy; no poll needed
		Server:       defaultConfig(),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	router, err := newRouterServer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer router.close()
	ts := httptest.NewServer(router.handler(log.New(io.Discard, "", 0)))
	defer ts.Close()

	code, body, _ := httpGet(t, ts.URL+"/v1/healthz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded router health: %d (%s)", code, body)
	}
	env := envelopeOf(t, code, body)
	if env.Error.Code != "degraded" {
		t.Fatalf("degraded health code %q", env.Error.Code)
	}
	// The diagnostics ride along in the same body.
	if !strings.Contains(body, `"replicas"`) || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("degraded health lost its diagnostics: %s", body)
	}
}
