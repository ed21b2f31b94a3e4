package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resistecc"
	"resistecc/internal/graph"
)

func do(t *testing.T, h http.Handler, method, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, rd))
	return rec
}

// waitIdle blocks until srv's lifecycle settles (queued mutations applied,
// any rebuild they scheduled swapped in) and returns the generation then
// current.
func waitIdle(t *testing.T, srv *server) uint64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.current().dyn.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	return srv.current().dyn.Snapshot().Generation
}

// TestMutationEndpoints walks the whole mutation surface on the
// two-component file: external-id translation, sentinel→status mapping and
// the structured envelope on every failure.
func TestMutationEndpoints(t *testing.T) {
	srv, _, _ := loadServer(t, twoComponentFile(t), []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64), resistecc.WithSeed(3),
	})
	h := testHandler(t, srv)

	// Removing the bridge 13–14 would disconnect node 14: refused, and the
	// index generation does not move.
	rec := do(t, h, http.MethodDelete, "/v1/edges?u=13&v=14", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("bridge removal: status %d (%s)", rec.Code, rec.Body.String())
	}
	if code, _ := decodeErrEnvelope(t, rec); code != "would_disconnect" {
		t.Fatalf("bridge removal code %q", code)
	}
	if g := srv.current().dyn.Snapshot().Generation; g != 1 {
		t.Fatalf("failed mutation moved generation to %d", g)
	}

	// A successful add: external ids in, generation 2 out.
	rec = do(t, h, http.MethodPost, "/v1/edges", `{"u":10,"v":14}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d (%s)", rec.Code, rec.Body.String())
	}
	body := decodeObj(t, rec)
	if body["u"].(float64) != 10 || body["v"].(float64) != 14 ||
		body["generation"].(float64) != 2 || body["mode"] != "incremental" ||
		body["drift"] != 0.0 || body["rebuildScheduled"] != false {
		t.Fatalf("add body %v", body)
	}
	if rec.Header().Get("X-Index-Generation") != "2" {
		t.Fatalf("add generation header %q", rec.Header().Get("X-Index-Generation"))
	}

	// The update is exact and trips no rebuild: queries see generation 2.
	gen := waitIdle(t, srv)
	if gen != 2 {
		t.Fatalf("generation %d after one exact add, want 2", gen)
	}
	if q := get(t, h, "/v1/eccentricity?node=10"); q.Header().Get("X-Index-Generation") != strconv.FormatUint(gen, 10) {
		t.Fatalf("query generation header %q, want %d", q.Header().Get("X-Index-Generation"), gen)
	}

	// With the 10–14 chord in place the former bridge is removable.
	rec = do(t, h, http.MethodDelete, "/v1/edges?u=13&v=14", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("unbridged removal: status %d (%s)", rec.Code, rec.Body.String())
	}
	if g := decodeObj(t, rec)["generation"].(float64); g != float64(gen+1) {
		t.Fatalf("removal generation %v, want %d", g, gen+1)
	}

	// Failure mapping table.
	for _, tc := range []struct {
		method, url, body string
		status            int
		code              string
	}{
		{http.MethodPost, "/v1/edges", `{"u":10,"v":12}`, http.StatusConflict, "duplicate_edge"},
		{http.MethodPost, "/v1/edges", `{"u":10,"v":10}`, http.StatusBadRequest, "self_loop"},
		{http.MethodPost, "/v1/edges", `{"u":1,"v":10}`, http.StatusNotFound, "node_not_found"},
		{http.MethodPost, "/v1/edges", `{"u":10}`, http.StatusBadRequest, "bad_request"},
		{http.MethodPost, "/v1/edges", `not json`, http.StatusBadRequest, "bad_request"},
		{http.MethodDelete, "/v1/edges?u=13&v=14", "", http.StatusNotFound, "edge_not_found"},
		{http.MethodDelete, "/v1/edges?u=10&v=999", "", http.StatusNotFound, "node_not_found"},
		{http.MethodDelete, "/v1/edges?u=10", "", http.StatusBadRequest, "missing_parameter"},
		{http.MethodDelete, "/v1/edges?u=x&v=10", "", http.StatusBadRequest, "bad_node_id"},
	} {
		rec := do(t, h, tc.method, tc.url, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.url, rec.Code, tc.status, rec.Body.String())
			continue
		}
		if code, _ := decodeErrEnvelope(t, rec); code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.url, code, tc.code)
		}
	}

	// Forcing a rebuild is always accepted.
	rec = do(t, h, http.MethodPost, "/v1/rebuild", "")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("rebuild: status %d", rec.Code)
	}
	waitIdle(t, srv)
}

// TestSummaryCachePerGeneration: the summary cache must be keyed by index
// generation — stable within one generation, recomputed after a mutation.
func TestSummaryCachePerGeneration(t *testing.T) {
	srv, _, _ := loadServer(t, twoComponentFile(t), []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64), resistecc.WithSeed(3),
	})
	h := testHandler(t, srv)

	first := get(t, h, "/v1/summary")
	if first.Code != http.StatusOK || first.Header().Get("X-Index-Generation") != "1" {
		t.Fatalf("summary gen 1: %d %q", first.Code, first.Header().Get("X-Index-Generation"))
	}
	if again := get(t, h, "/v1/summary"); again.Body.String() != first.Body.String() {
		t.Fatal("summary not cached within a generation")
	}

	if rec := do(t, h, http.MethodPost, "/v1/edges", `{"u":10,"v":14}`); rec.Code != http.StatusOK {
		t.Fatalf("add: %d (%s)", rec.Code, rec.Body.String())
	}

	gen := waitIdle(t, srv)
	second := get(t, h, "/v1/summary")
	if second.Header().Get("X-Index-Generation") != strconv.FormatUint(gen, 10) {
		t.Fatalf("summary gen after mutation: %q, want %d", second.Header().Get("X-Index-Generation"), gen)
	}
	// The chord shrinks worst-case resistances, so the cached payload must
	// actually have been recomputed, not replayed.
	if second.Body.String() == first.Body.String() {
		t.Fatal("summary cache not invalidated by generation change")
	}
}

// TestMixedWorkloadNoDowntime is the acceptance scenario of the dynamic
// serving core: readers hammer /v1/eccentricity while a writer streams edge
// additions, each followed by a POST /v1/rebuild whose build runs behind
// it, racing the readers. Requirements: zero 5xx,
// a monotone non-decreasing X-Index-Generation per client, and — once the
// queue drains and the final rebuild lands — answers bit-identical to a cold
// build of the final graph.
func TestMixedWorkloadNoDowntime(t *testing.T) {
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64),
		resistecc.WithSeed(5), resistecc.WithMaxHullVertices(24),
	}
	cfg := defaultConfig()
	cfg.MaxInFlight = 0 // shedding is a 503; this test demands zero 5xx
	// Keep a pristine copy for the cold reference build (the server clones
	// its input, so g itself also stays untouched — this is belt and braces).
	final := g.Clone()
	srv, err := newServer(context.Background(), g, graph.ComposeIDs(g.N(), nil, nil), g.N(), g.M(), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	h := testHandler(t, srv)

	// Deterministic batch of currently-absent edges.
	var adds [][2]int
	for i := 0; len(adds) < 12 && i < 2000; i++ {
		u, v := (i*13)%120, (i*57+31)%120
		if u == v || final.HasEdge(u, v) {
			continue
		}
		adds = append(adds, [2]int{u, v})
		if err := final.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	if len(adds) < 12 {
		t.Fatalf("only %d candidate edges", len(adds))
	}

	var (
		server5xx  atomic.Int64
		nonMono    atomic.Int64
		writerDone = make(chan struct{})
		wg         sync.WaitGroup
	)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastGen := uint64(0)
			for i := 0; ; i++ {
				select {
				case <-writerDone:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/v1/eccentricity?node=%d", (r*31+i)%120), nil))
				if rec.Code >= 500 {
					server5xx.Add(1)
				}
				gen, err := strconv.ParseUint(rec.Header().Get("X-Index-Generation"), 10, 64)
				if err != nil || gen < lastGen {
					nonMono.Add(1)
				}
				lastGen = gen
			}
		}(r)
	}

	for _, e := range adds {
		rec := do(t, h, http.MethodPost, "/v1/edges",
			fmt.Sprintf(`{"u":%d,"v":%d}`, e[0], e[1]))
		if rec.Code != http.StatusOK {
			t.Errorf("add %v: status %d (%s)", e, rec.Code, rec.Body.String())
		}
		if rec := do(t, h, http.MethodPost, "/v1/rebuild", ""); rec.Code != http.StatusAccepted {
			t.Errorf("rebuild after add %v: status %d (%s)", e, rec.Code, rec.Body.String())
		}
	}
	close(writerDone)
	wg.Wait()

	if n := server5xx.Load(); n != 0 {
		t.Fatalf("%d server errors during the mixed workload", n)
	}
	if n := nonMono.Load(); n != 0 {
		t.Fatalf("%d non-monotone or missing generation headers", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.current().dyn.WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.current().dyn.Stats()
	if st.Rebuilds < 1 {
		t.Fatalf("expected at least one background rebuild, stats %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("lifecycle not settled after WaitIdle: %+v", st)
	}

	// After the final rebuild the served index must equal a cold build of
	// the final graph exactly — same seeds, same pipeline, bit-identical.
	cold, err := resistecc.NewFastIndex(ctx, final, opts...)
	if err != nil {
		t.Fatal(err)
	}
	snap := srv.current().dyn.Snapshot()
	if snap.M != final.M() {
		t.Fatalf("snapshot has %d edges, final graph %d", snap.M, final.M())
	}
	if snap.Index.BoundarySize() != cold.BoundarySize() {
		t.Fatalf("hull %d vs cold %d", snap.Index.BoundarySize(), cold.BoundarySize())
	}
	for v := 0; v < final.N(); v++ {
		got, want := snap.Index.Eccentricity(v), cold.Eccentricity(v)
		if got != want {
			t.Fatalf("node %d: served %+v, cold rebuild %+v", v, got, want)
		}
	}
}
