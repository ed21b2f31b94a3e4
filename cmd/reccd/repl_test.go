package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resistecc"
	"resistecc/internal/graph"
	"resistecc/internal/obs"
	"resistecc/internal/persist"
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
// byte — the replica never rebuilds, so its state is a pure function of the
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
	// The tailer swaps the restored index in before it counts the resync, so
	// convergence can be seen first: poll the counter under the same
	// deadline as waitConverged.
	deadline := time.Now().Add(10 * time.Second)
	for rs.replicas[0].tailer.Stats().Resyncs <= resyncsBefore {
		if time.Now().After(deadline) {
			t.Fatalf("expected a resync after rebuild+checkpoint (resyncs %d -> %d)",
				resyncsBefore, rs.replicas[0].tailer.Stats().Resyncs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, wBody, _ := httpGet(t, rs.writerTS.URL+"/v1/summary", nil)
	for i, ts := range rs.replicaTSs {
		_, rBody, _ := httpGet(t, ts.URL+"/v1/summary", nil)
		if rBody != wBody {
			t.Fatalf("replica %d diverges after resync:\n%s\nvs\n%s", i, rBody, wBody)
		}
	}
}

// TestReplRefusedRebuildKeepsReplicaConverged executes the failure matrix's
// "writer rebuild whose checkpoint fails" row: the writer publishes nothing,
// so writer and replica keep serving the same generation with the same
// answers, and the rebuild after the disk heals re-bases the replica.
func TestReplRefusedRebuildKeepsReplicaConverged(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	writer := durableServer(t, dir)
	defer writer.close()
	writerTS := httptest.NewServer(writer.handler(log.New(io.Discard, "", 0)))
	defer writerTS.Close()
	replica, replicaTS := startReplica(t, ctx, writerTS.URL)
	defer replicaTS.Close()
	defer replica.close()

	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(writerTS.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: %d (%s), want %d", path, resp.StatusCode, b, want)
		}
	}
	rebuild := func() {
		t.Helper()
		post("/v1/rebuild", "", http.StatusAccepted)
		if err := writer.current().dyn.WaitIdle(ctx); err != nil {
			t.Fatal(err)
		}
	}
	post("/v1/edges", `{"u":0,"v":100}`, http.StatusOK)
	gen := writer.current().dyn.Snapshot().Generation

	// The rebuild's snapshot cannot be renamed onto a directory.
	blocked := filepath.Join(dir, "snapshot-0000000000000001.snap")
	if err := os.MkdirAll(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "keep"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rebuild()
	var health struct {
		Generation uint64 `json:"generation"`
		Rebuilds   uint64 `json:"rebuilds"`
		Persist    struct {
			JournalFailures uint64 `json:"journalFailures"`
		} `json:"persist"`
	}
	_, body, _ := httpGet(t, writerTS.URL+"/v1/healthz", nil)
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Rebuilds != 0 || health.Generation != gen || health.Persist.JournalFailures != 1 {
		t.Fatalf("writer after a rebuild whose checkpoint failed: %s; want 0 rebuilds, generation %d and 1 journal failure", body, gen)
	}

	waitConverged(t, writer, replica)
	time.Sleep(5 * 20 * time.Millisecond) // a few polls, for a resync that must not come
	for _, p := range []string{"/v1/summary", "/v1/eccentricity?node=0,7,33,100,119"} {
		_, wBody, wHdr := httpGet(t, writerTS.URL+p, nil)
		_, rBody, rHdr := httpGet(t, replicaTS.URL+p, nil)
		if rBody != wBody || rHdr.Get("X-Index-Generation") != wHdr.Get("X-Index-Generation") {
			t.Fatalf("%s: replica at generation %s answers\n%s\nwriter at generation %s answers\n%s",
				p, rHdr.Get("X-Index-Generation"), rBody, wHdr.Get("X-Index-Generation"), wBody)
		}
	}

	if err := os.RemoveAll(blocked); err != nil {
		t.Fatal(err)
	}
	resyncs := replica.tailer.Stats().Resyncs
	rebuild()
	waitConverged(t, writer, replica)
	// The tailer swaps the restored index in before it counts the resync.
	deadline := time.Now().Add(10 * time.Second)
	for replica.tailer.Stats().Resyncs == resyncs && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := replica.tailer.Stats().Resyncs; got != resyncs+1 {
		t.Fatalf("replica resynced %d times after the healed rebuild, want 1", got-resyncs)
	}
	if got := writer.current().dyn.Snapshot().Generation; got != gen+1 {
		t.Fatalf("writer at generation %d after the healed rebuild, want %d", got, gen+1)
	}
}

// TestReplExactUpdatesConverge: a replica applies the writer's exact sketch
// updates from the shipped WAL and snapshot and stays bit-identical, with
// no resync after its initial sync. The writer adds two edges, checkpoints
// on demand, which cuts its WAL at the replica's position, then removes a
// build-time edge, taking the column the build drew for it out of the
// projection on both sides.
func TestReplExactUpdatesConverge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	writer := durableServer(t, t.TempDir())
	defer writer.close()
	writerTS := httptest.NewServer(writer.handler(log.New(io.Discard, "", 0)))
	defer writerTS.Close()
	replica, replicaTS := startReplica(t, ctx, writerTS.URL)
	defer replicaTS.Close()
	defer replica.close()
	waitConverged(t, writer, replica)
	before := resyncsOf(t, replicaTS.URL)

	mutate := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, writerTS.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack struct {
			Mode             string   `json:"mode"`
			Drift            *float64 `json:"drift"`
			RebuildScheduled bool     `json:"rebuildScheduled"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d, %v", method, path, resp.StatusCode, err)
		}
		if ack.Mode != "incremental" || ack.Drift == nil || *ack.Drift != 0 || ack.RebuildScheduled {
			t.Fatalf("%s %s: ack %+v, want an incremental update with drift 0 and no rebuild", method, path, ack)
		}
	}
	mutate(http.MethodPost, "/v1/edges", `{"u":0,"v":100}`)
	mutate(http.MethodPost, "/v1/edges", `{"u":7,"v":119}`)
	waitConverged(t, writer, replica)
	resp, err := http.Post(writerTS.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5) // durableServer's graph
	if err != nil {
		t.Fatal(err)
	}
	var built [2]int
	for _, e := range g.Edges() {
		h := g.Clone()
		if h.RemoveEdge(e[0], e[1]) == nil && h.Connected() {
			built = e
			break
		}
	}
	mutate(http.MethodDelete, fmt.Sprintf("/v1/edges?u=%d&v=%d", built[0], built[1]), "")
	waitConverged(t, writer, replica)

	for _, p := range []string{
		"/v1/summary",
		"/v1/eccentricity?node=0,7,33,100,119",
		fmt.Sprintf("/v1/resistance?u=%d&v=%d", built[0], built[1]),
		"/v1/resistance?u=0&v=100",
	} {
		_, wBody, wHdr := httpGet(t, writerTS.URL+p, nil)
		_, rBody, rHdr := httpGet(t, replicaTS.URL+p, nil)
		if rBody != wBody || rHdr.Get("X-Index-Generation") != wHdr.Get("X-Index-Generation") {
			t.Fatalf("%s: replica at generation %s answers\n%s\nwriter at generation %s answers\n%s",
				p, rHdr.Get("X-Index-Generation"), rBody, wHdr.Get("X-Index-Generation"), wBody)
		}
	}
	if gen := writer.current().dyn.Snapshot().Generation; gen != 4 {
		t.Fatalf("writer at generation %d after three exact updates, want 4", gen)
	}
	if after := resyncsOf(t, replicaTS.URL); after != before {
		t.Fatalf("replica resyncs went from %s to %s; exact updates need none", before, after)
	}
}

// resyncsOf reads reccd_repl_resyncs_total from the replica at base.
func resyncsOf(t *testing.T, base string) string {
	t.Helper()
	_, metrics, _ := httpGet(t, base+"/v1/metrics", nil)
	for _, line := range strings.Split(metrics, "\n") {
		if v, ok := strings.CutPrefix(line, "reccd_repl_resyncs_total "); ok {
			return v
		}
	}
	t.Fatalf("replica metrics lack reccd_repl_resyncs_total:\n%s", metrics)
	return ""
}

// TestReplNearBridgeRemovalIsTailed: the writer serves the test graph with
// a path of 30 new nodes hung between its nodes 0 and 60, closing a cycle
// of more than 30 nodes, and removes an edge of that path, whose resistance
// is above 0.95. The removal is an exact update like any other: the ack
// reads "incremental" with no rebuild scheduled, the writer runs no
// rebuild, and the replica tails the record. It then answers byte for byte
// as the writer does, at the same generation, with no resync.
func TestReplNearBridgeRemovalIsTailed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5) // durableServer's graph
	if err != nil {
		t.Fatal(err)
	}
	const k = 30
	n := base.N()
	edges, prev := base.Edges(), 0
	for i := n; i < n+k; i++ {
		edges, prev = append(edges, [2]int{prev, i}), i
	}
	g, err := resistecc.FromEdges(n+k, append(edges, [2]int{prev, 60}))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := resistecc.NewExactIndex(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	u, v := n+k/2, n+k/2+1
	if r := ex.Resistance(u, v); r < 0.95 {
		t.Fatalf("r(%d,%d) = %.4f, want a near-bridge edge (at least 0.95)", u, v, r)
	}
	cfg := defaultConfig()
	cfg.DataDir = t.TempDir()
	writer, err := newServer(ctx, g, graph.ComposeIDs(g.N(), nil, nil), g.N(), g.M(), []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64),
		resistecc.WithSeed(5), resistecc.WithMaxHullVertices(24),
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer writer.close()
	writerTS := httptest.NewServer(writer.handler(log.New(io.Discard, "", 0)))
	defer writerTS.Close()
	replica, replicaTS := startReplica(t, ctx, writerTS.URL)
	defer replicaTS.Close()
	defer replica.close()
	waitConverged(t, writer, replica)
	before := resyncsOf(t, replicaTS.URL)

	req, err := http.NewRequest(http.MethodDelete, writerTS.URL+fmt.Sprintf("/v1/edges?u=%d&v=%d", u, v), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var ack struct {
		Generation       uint64 `json:"generation"`
		Mode             string `json:"mode"`
		RebuildScheduled bool   `json:"rebuildScheduled"`
	}
	if err := json.Unmarshal(b, &ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE (%d,%d): %d (%s)", u, v, resp.StatusCode, b)
	}
	if ack.Mode != "incremental" || ack.RebuildScheduled || ack.Generation != 2 {
		t.Fatalf("removal ack %s, want an incremental update at generation 2 and no rebuild", b)
	}
	waitConverged(t, writer, replica)
	var health struct {
		Generation uint64 `json:"generation"`
		Rebuilds   uint64 `json:"rebuilds"`
	}
	_, body, _ := httpGet(t, writerTS.URL+"/v1/healthz", nil)
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Rebuilds != 0 || health.Generation != 2 {
		t.Fatalf("writer after the removal: %s; want generation 2 and 0 rebuilds", body)
	}
	for _, p := range []string{
		"/v1/summary",
		fmt.Sprintf("/v1/eccentricity?node=0,60,%d,%d,%d", u, v, n+k-1),
		fmt.Sprintf("/v1/resistance?u=%d&v=%d", u, v),
	} {
		_, wBody, wHdr := httpGet(t, writerTS.URL+p, nil)
		_, rBody, rHdr := httpGet(t, replicaTS.URL+p, nil)
		if rBody != wBody || rHdr.Get("X-Index-Generation") != wHdr.Get("X-Index-Generation") {
			t.Fatalf("%s: replica at generation %s answers\n%s\nwriter at generation %s answers\n%s",
				p, rHdr.Get("X-Index-Generation"), rBody, wHdr.Get("X-Index-Generation"), wBody)
		}
	}
	if after := resyncsOf(t, replicaTS.URL); after != before {
		t.Fatalf("replica resyncs went from %s to %s; a tailed removal needs none", before, after)
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

// A replica whose writer ships a snapshot of another format version fails
// its initial sync at once, naming both versions, instead of retrying every
// second: no retry heals a format mismatch.
func TestReplicaInitialSyncFailsOnFormatMismatch(t *testing.T) {
	d, err := resistecc.NewDynamicIndex(context.Background(), resistecc.CycleGraph(12),
		resistecc.WithEpsilon(0.3), resistecc.WithDim(16), resistecc.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.snap")
	err = d.SaveSnapshot(path)
	d.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(snap[8:12], persist.FormatVersion-1) // the version follows the 8-byte magic

	var fetches atomic.Int32
	writer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/repl/snapshot" {
			http.NotFound(w, r)
			return
		}
		fetches.Add(1)
		w.Write(snap)
	}))
	defer writer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cfg := Config{Role: roleReplica, Upstream: writer.URL, PollInterval: 20 * time.Millisecond, Server: defaultConfig()}
	srv, err := newReplicaServer(ctx, cfg)
	if err == nil {
		srv.close()
		t.Fatal("replica started against a writer on another format version")
	}
	if !errors.Is(err, persist.ErrVersion) {
		t.Fatalf("initial sync: %v, want persist.ErrVersion", err)
	}
	want := fmt.Sprintf("v%d, reader supports v%d", persist.FormatVersion-1, persist.FormatVersion)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name both versions (%q)", err, want)
	}
	if n := fetches.Load(); n != 1 {
		t.Errorf("writer served %d snapshot fetches, want 1 (no retry)", n)
	}
}
