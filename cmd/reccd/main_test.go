package main

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"resistecc"
	"resistecc/internal/obs"
)

// testServer builds a server over a connected generated graph (identity id
// mapping) with a small batch cap so limits are testable.
func testServer(t *testing.T) *server {
	t.Helper()
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.MaxBatch = 8
	srv, err := newServer(context.Background(), g, newIDMap(g.N(), nil, nil), g.N(), g.M(),
		[]resistecc.Option{
			resistecc.WithEpsilon(0.3), resistecc.WithDim(64),
			resistecc.WithSeed(5), resistecc.WithMaxHullVertices(24),
		}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	return srv
}

func testHandler(t *testing.T, srv *server) http.Handler {
	t.Helper()
	return srv.handler(log.New(io.Discard, "", 0))
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func decodeObj(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON object: %v (%s)", err, rec.Body.String())
	}
	return body
}

func decodeArr(t *testing.T, rec *httptest.ResponseRecorder) []map[string]any {
	t.Helper()
	var body []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON array: %v (%s)", err, rec.Body.String())
	}
	return body
}

// decodeErrEnvelope asserts the structured error contract: every non-2xx
// body is {"error":{"code":…,"message":…}} with both fields non-empty.
func decodeErrEnvelope(t *testing.T, rec *httptest.ResponseRecorder) (code, msg string) {
	t.Helper()
	var body obs.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad error envelope: %v (%s)", err, rec.Body.String())
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("error envelope missing code/message: %s", rec.Body.String())
	}
	return body.Error.Code, body.Error.Message
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	rec := get(t, testHandler(t, srv), "/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := decodeObj(t, rec)
	if body["status"] != "ok" || body["nodes"].(float64) != 120 {
		t.Fatalf("health %v", body)
	}
	if body["hullBoundary"].(float64) <= 0 {
		t.Fatal("missing hull metadata")
	}
	// Build statistics from the solver/sketch/hull layers must be threaded
	// through.
	if body["solverIters"].(float64) <= 0 {
		t.Fatalf("missing solver stats: %v", body)
	}
	if body["sketchDim"].(float64) != 64 || body["maxBatch"].(float64) != 8 {
		t.Fatalf("config echo wrong: %v", body)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id")
	}
	if rec.Header().Get("X-Index-Generation") != "1" {
		t.Fatalf("generation header %q, want 1", rec.Header().Get("X-Index-Generation"))
	}
	if body["generation"].(float64) != 1 {
		t.Fatalf("lifecycle fields missing from healthz: %v", body)
	}
}

// The pre-v1 unversioned aliases are retired: they 404 with the structured
// envelope like any unknown path.
func TestLegacyRoutesGated(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	for _, path := range []string{"/healthz", "/eccentricity?node=0", "/summary", "/metrics"} {
		rec := get(t, h, path)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s should be retired: status %d", path, rec.Code)
		}
		if code, _ := decodeErrEnvelope(t, rec); code != "not_found" {
			t.Fatalf("%s: code %q", path, code)
		}
	}
}

// Requests that match no route at all get the structured envelope too, not
// the mux's plain-text page.
func TestUnknownRouteEnvelope(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	rec := get(t, h, "/nope")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d", rec.Code)
	}
	if code, _ := decodeErrEnvelope(t, rec); code != "not_found" {
		t.Fatalf("code %q", code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
}

// An error written behind withEnvelope without the JSON envelope (an
// http.Error, a bare WriteHeader with a plain-text body) still reaches the
// client as {"error":{code,message}}, on every role: all of them wrap their
// mux in withEnvelope.
func TestEnvelopeRewritesPlainErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bad", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "bad input", http.StatusBadRequest)
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, "boom")
	})
	h := withEnvelope(mux)
	for path, want := range map[string]string{"/bad": "bad_request", "/boom": "internal_server_error"} {
		rec := get(t, h, path)
		if code, _ := decodeErrEnvelope(t, rec); code != want {
			t.Errorf("%s: code %q, want %q", path, code, want)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content type %q", path, ct)
		}
	}
}

func TestEccentricityAlwaysArray(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	// Single id: still an array of one (documented contract; the seed
	// returned a bare object here, forcing clients to shape-sniff).
	rec := get(t, h, "/v1/eccentricity?node=0")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	arr := decodeArr(t, rec)
	if len(arr) != 1 || arr[0]["node"].(float64) != 0 || arr[0]["eccentricity"].(float64) <= 0 {
		t.Fatalf("single-node body %s", rec.Body.String())
	}
	// Batch keeps request order.
	rec = get(t, h, "/v1/eccentricity?node=7,0,10")
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d", rec.Code)
	}
	arr = decodeArr(t, rec)
	if len(arr) != 3 || arr[0]["node"].(float64) != 7 || arr[1]["node"].(float64) != 0 || arr[2]["node"].(float64) != 10 {
		t.Fatalf("batch body %s", rec.Body.String())
	}
}

func TestEccentricityErrors(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	for url, want := range map[string]int{
		"/v1/eccentricity":             http.StatusBadRequest,
		"/v1/eccentricity?node=abc":    http.StatusBadRequest,
		"/v1/eccentricity?node=0,,1":   http.StatusBadRequest,
		"/v1/eccentricity?node=99999":  http.StatusNotFound, // well-formed but unknown
		"/v1/eccentricity?node=-3":     http.StatusNotFound,
		"/v1/eccentricity?node=0,7777": http.StatusNotFound, // bad id anywhere in the batch
	} {
		rec := get(t, h, url)
		if rec.Code != want {
			t.Errorf("%s: status %d, want %d", url, rec.Code, want)
		}
		code, _ := decodeErrEnvelope(t, rec)
		switch want {
		case http.StatusBadRequest:
			if code != "bad_node_id" && code != "missing_parameter" {
				t.Errorf("%s: code %q", url, code)
			}
		case http.StatusNotFound:
			if code != "node_not_found" {
				t.Errorf("%s: code %q", url, code)
			}
		}
	}
}

func TestEccentricityBatchCap(t *testing.T) {
	srv := testServer(t) // MaxBatch = 8
	h := testHandler(t, srv)
	ids := make([]string, 9)
	for i := range ids {
		ids[i] = "1"
	}
	rec := get(t, h, "/v1/eccentricity?node="+strings.Join(ids, ","))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize batch: status %d, want 413", rec.Code)
	}
	// At the cap it still works.
	rec = get(t, h, "/v1/eccentricity?node="+strings.Join(ids[:8], ","))
	if rec.Code != http.StatusOK {
		t.Fatalf("at-cap batch: status %d", rec.Code)
	}
}

func TestResistanceEndpoint(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	rec := get(t, h, "/v1/resistance?u=0&v=10")
	if body := decodeObj(t, rec); rec.Code != http.StatusOK || body["resistance"].(float64) <= 0 {
		t.Fatalf("status %d body %v", rec.Code, body)
	}
	for url, want := range map[string]int{
		"/v1/resistance?u=0":          http.StatusBadRequest,
		"/v1/resistance?u=0&v=x":      http.StatusBadRequest,
		"/v1/resistance?u=0&v=100000": http.StatusNotFound,
		"/v1/resistance?u=-1&v=5":     http.StatusNotFound,
		"/v1/resistance?u=zzz&v=0":    http.StatusBadRequest,
	} {
		if rec := get(t, h, url); rec.Code != want {
			t.Errorf("%s: status %d, want %d", url, rec.Code, want)
		}
	}
}

func TestSummaryEndpointCached(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	rec := get(t, h, "/v1/summary")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := decodeObj(t, rec)
	radius := body["radius"].(float64)
	diameter := body["diameter"].(float64)
	if radius <= 0 || diameter < radius {
		t.Fatalf("summary %v", body)
	}
	// Hull-pair diameter approximates the distribution diameter.
	hullDiam := body["hullDiameter"].(float64)
	if hullDiam < 0.5*diameter || hullDiam > 1.5*diameter {
		t.Fatalf("hull diameter %g vs %g", hullDiam, diameter)
	}
	if len(body["diameterPair"].([]any)) != 2 || len(body["center"].([]any)) == 0 {
		t.Fatalf("pair/center missing: %v", body)
	}
	first := rec.Body.String()
	// The whole payload — including the O(l²) hull diameter the seed
	// recomputed per request — is cached: byte-identical on a second hit.
	if again := get(t, h, "/v1/summary"); again.Body.String() != first {
		t.Fatalf("summary not cached:\n%s\nvs\n%s", first, again.Body.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	for _, url := range []string{"/v1/eccentricity?node=0", "/v1/summary", "/v1/healthz", "/v1/metrics", "/v1/summary"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, url, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", url, rec.Code)
		}
		if code, _ := decodeErrEnvelope(t, rec); code != "method_not_allowed" {
			t.Errorf("POST %s: code %q", url, code)
		}
	}
	// Mutations are POST/DELETE-only.
	rec := get(t, h, "/v1/edges")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/edges: status %d, want 405", rec.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	get(t, h, "/v1/eccentricity?node=0")
	get(t, h, "/v1/eccentricity?node=1,2")
	get(t, h, "/v1/eccentricity?node=nope")
	get(t, h, "/v1/summary")

	rec := get(t, h, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`reccd_requests_total{endpoint="eccentricity",class="2xx"} 2`,
		`reccd_requests_total{endpoint="eccentricity",class="4xx"} 1`,
		`reccd_requests_total{endpoint="summary",class="2xx"} 1`,
		`reccd_request_seconds_count{endpoint="eccentricity"} 3`,
		`reccd_request_seconds_bucket{endpoint="summary",le="+Inf"} 1`,
		"reccd_index_sketch_dim 64",
		"reccd_index_hull_size",
		"reccd_index_solver_total_iters",
		"reccd_rejected_total 0",
		// Lifecycle gauges, sampled live at exposition time.
		"reccd_index_generation 1",
		"reccd_index_nodes 120",
		"reccd_mutation_queue_depth 0",
		"reccd_index_drift 0",
		"reccd_index_rebuilds 0",
		"reccd_index_rebuild_failures 0",
		"reccd_index_rebuild_in_progress 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestPprofGated(t *testing.T) {
	srv := testServer(t) // Pprof false
	h := testHandler(t, srv)
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof should be off by default: %d", rec.Code)
	}
	srv.cfg.Pprof = true
	h = testHandler(t, srv)
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof flag should mount the index: %d", rec.Code)
	}
}
