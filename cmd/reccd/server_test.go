package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resistecc"
	"resistecc/internal/graph"
)

// twoComponentFile writes an edge list whose largest component carries the
// labels 10..14 (a path with a chord) and whose second component is 1-2.
// Crucially, labels do not start at 0 and the small component's labels (1,
// 2) ARE valid internal indices of the 5-node LCC — exactly the situation
// where the seed server answered for the wrong nodes.
func twoComponentFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "two.txt")
	data := "# two components\n10 11\n11 12\n12 13\n13 14\n10 12\n1 2\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadServer mirrors main()'s load path: read, reduce to LCC, keep the
// composed id mapping.
func loadServer(t *testing.T, path string, opts []resistecc.Option) (*server, *resistecc.Graph, *graph.IDMap) {
	t.Helper()
	g, labels, err := resistecc.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	lcc, mapping := g.LargestComponent()
	ids := graph.ComposeIDs(lcc.N(), labels, mapping)
	srv, err := newServer(context.Background(), lcc, ids, g.N(), g.M(), opts, defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	return srv, lcc, ids
}

// TestDisconnectedInputIDMapping is the regression test for the headline
// bug: on a disconnected edge list the seed discarded both the edge-list
// label interning and the LCC relabelling, so a query for node 1 — which
// lives in the *dropped* component — was silently answered with the
// eccentricity of internal node 1 (= label 11). Now external ids round-trip
// and ids outside the LCC are a 404.
func TestDisconnectedInputIDMapping(t *testing.T) {
	srv, lcc, ids := loadServer(t, twoComponentFile(t), []resistecc.Option{
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64), resistecc.WithSeed(3),
	})
	h := testHandler(t, srv)

	if lcc.N() != 5 || lcc.M() != 5 {
		t.Fatalf("LCC n=%d m=%d, want 5, 5", lcc.N(), lcc.M())
	}

	// Ground truth: query the index directly by internal id.
	ref, err := resistecc.NewFastIndex(context.Background(), lcc,
		resistecc.WithEpsilon(0.3), resistecc.WithDim(64), resistecc.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	for ext := int64(10); ext <= 14; ext++ {
		rec := get(t, h, fmt.Sprintf("/v1/eccentricity?node=%d", ext))
		if rec.Code != http.StatusOK {
			t.Fatalf("node %d: status %d (%s)", ext, rec.Code, rec.Body.String())
		}
		arr := decodeArr(t, rec)
		if len(arr) != 1 {
			t.Fatalf("node %d: %d results", ext, len(arr))
		}
		if got := int64(arr[0]["node"].(float64)); got != ext {
			t.Fatalf("asked for node %d, response says node %d", ext, got)
		}
		internal, ok := ids.Internal(ext)
		if !ok {
			t.Fatalf("label %d missing from id map", ext)
		}
		want := ref.Eccentricity(internal)
		if got := arr[0]["eccentricity"].(float64); math.Abs(got-want.Value) > 1e-12 {
			t.Fatalf("node %d: eccentricity %g, want %g", ext, got, want.Value)
		}
		if far := int64(arr[0]["farthest"].(float64)); far < 10 || far > 14 {
			t.Fatalf("node %d: farthest %d is not an original LCC label", ext, far)
		}
	}

	// Nodes of the dropped component: 404, not an answer for somebody else.
	// (The seed accepted node=1 — in range for n=5 — and returned internal
	// node 1's eccentricity, i.e. label 11's.)
	for _, ext := range []string{"1", "2", "999"} {
		rec := get(t, h, "/v1/eccentricity?node="+ext)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("node %s (outside LCC): status %d, want 404 (%s)",
				ext, rec.Code, rec.Body.String())
		}
	}

	// Resistance translates both endpoints too.
	rec := get(t, h, "/v1/resistance?u=10&v=14")
	body := decodeObj(t, rec)
	if rec.Code != http.StatusOK || body["u"].(float64) != 10 || body["v"].(float64) != 14 {
		t.Fatalf("resistance: %d %v", rec.Code, body)
	}
	u, _ := ids.Internal(10)
	v, _ := ids.Internal(14)
	wantR := ref.Resistance(u, v)
	if got := body["resistance"].(float64); math.Abs(got-wantR) > 1e-12 {
		t.Fatalf("resistance %g, want %g", got, wantR)
	}
	if rec := get(t, h, "/v1/resistance?u=1&v=10"); rec.Code != http.StatusNotFound {
		t.Fatalf("resistance with dropped-component endpoint: %d, want 404", rec.Code)
	}

	// Summary reports external labels for center and diameter pair.
	rec = get(t, h, "/v1/summary")
	body = decodeObj(t, rec)
	for _, key := range []string{"center", "diameterPair"} {
		for _, v := range body[key].([]any) {
			if lab := int64(v.(float64)); lab < 10 || lab > 14 {
				t.Fatalf("%s contains %d: not an original LCC label (%v)", key, lab, body)
			}
		}
	}

	// Healthz distinguishes the input graph from the indexed LCC.
	body = decodeObj(t, get(t, h, "/v1/healthz"))
	if body["inputNodes"].(float64) != 7 || body["nodes"].(float64) != 5 {
		t.Fatalf("healthz input/LCC dims: %v", body)
	}
}

func TestIDMapComposition(t *testing.T) {
	// Compact interning order for the file above: 10→0, 11→1, 12→2, 13→3,
	// 14→4, 1→5, 2→6. Suppose the LCC kept compact nodes {0,1,2,3,4}.
	labels := []int64{10, 11, 12, 13, 14, 1, 2}
	mapping := []int{0, 1, 2, 3, 4}
	m := graph.ComposeIDs(5, labels, mapping)
	for v, want := range []int64{10, 11, 12, 13, 14} {
		if m.External(v) != want {
			t.Fatalf("External(%d) = %d, want %d", v, m.External(v), want)
		}
		if got, ok := m.Internal(want); !ok || got != v {
			t.Fatalf("Internal(%d) = %d,%v, want %d", want, got, ok, v)
		}
	}
	if _, ok := m.Internal(1); ok {
		t.Fatal("label 1 (dropped component) must not resolve")
	}
	// Identity map (generated graphs).
	id := graph.ComposeIDs(3, nil, nil)
	if v, ok := id.Internal(2); id.External(2) != 2 || !ok || v != 2 {
		t.Fatal("identity map broken")
	}
	// Out-of-range External() echoes rather than panics.
	if id.External(99) != 99 {
		t.Fatal("out-of-range echo broken")
	}
}

// TestGracefulShutdownDrain exercises the production server wrapper: the
// configured http.Server must have non-zero timeouts, and Shutdown must let
// an in-flight request finish while refusing new connections.
func TestGracefulShutdownDrain(t *testing.T) {
	entered := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte("done"))
	})
	cfg := defaultConfig()
	hs := httpServer("127.0.0.1:0", slow, cfg)
	if hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("server timeouts not set: %+v", hs)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	type result struct {
		code int
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		inflight <- result{code: resp.StatusCode, body: string(b)}
	}()

	<-entered // the request is in the handler; now shut down underneath it
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()

	res := <-inflight
	if res.err != nil || res.code != http.StatusOK || res.body != "done" {
		t.Fatalf("in-flight request not drained: %+v", res)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v, want ErrServerClosed", err)
	}
	// New connections are refused after shutdown.
	if _, err := http.Get(base + "/slow"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestConcurrentQueries hammers the full middleware stack from many
// goroutines; run with -race this guards the lock-free metrics paths and
// the summary Once.
func TestConcurrentQueries(t *testing.T) {
	srv := testServer(t)
	h := srv.handler(log.New(io.Discard, "", 0))
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 30; i++ {
				switch i % 4 {
				case 0:
					get(t, h, fmt.Sprintf("/v1/eccentricity?node=%d", (w*31+i)%120))
				case 1:
					get(t, h, "/v1/resistance?u=0&v=5")
				case 2:
					get(t, h, "/v1/summary")
				case 3:
					get(t, h, "/v1/metrics")
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	rec := get(t, h, "/v1/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics after hammering: %d", rec.Code)
	}
}
