package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resistecc"
	"resistecc/internal/graph"
	"resistecc/internal/testutil"
)

// durableServer builds a server persisting into dir, over the same generated
// graph as testServer so restarts can reuse the directory.
func durableServer(t testing.TB, dir string) *server {
	t.Helper()
	return durableServerCfg(t, dir, nil)
}

// durableServerCfg is durableServer with a config hook (trace recording,
// rebuild limits, …) applied before construction.
func durableServerCfg(t testing.TB, dir string, mutate func(*serverConfig)) *server {
	t.Helper()
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig()
	cfg.DataDir = dir
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := newServer(context.Background(), g, graph.ComposeIDs(g.N(), nil, nil), g.N(), g.M(),
		[]resistecc.Option{
			resistecc.WithEpsilon(0.3), resistecc.WithDim(64),
			resistecc.WithSeed(5), resistecc.WithMaxHullVertices(24),
		}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestCheckpointEndpointRequiresDataDir(t *testing.T) {
	srv := testServer(t)
	h := testHandler(t, srv)
	rec := do(t, h, http.MethodPost, "/v1/checkpoint", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir: status %d (%s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"not_durable"`) {
		t.Fatalf("wrong error code: %s", rec.Body.String())
	}
}

func TestDurableServerCheckpointAndWarmRestart(t *testing.T) {
	dir := t.TempDir()
	srv := durableServer(t, dir)
	h := testHandler(t, srv)
	if srv.recovery.Warm {
		t.Fatalf("first start claims warm: %+v", srv.recovery)
	}

	// A mutation lands in the WAL; an explicit checkpoint absorbs it.
	rec := do(t, h, http.MethodPost, "/v1/edges", `{"u":0,"v":100}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d (%s)", rec.Code, rec.Body.String())
	}
	rec = do(t, h, http.MethodPost, "/v1/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d (%s)", rec.Code, rec.Body.String())
	}
	body := decodeObj(t, rec)
	if body["checkpointed"] != true || body["walRecords"].(float64) != 0 {
		t.Fatalf("checkpoint response: %v", body)
	}
	wantGen := srv.current().dyn.Snapshot().Generation
	srv.close()

	// Restart over the same directory: warm, same generation, and the
	// durability surface shows up in /healthz and /metrics.
	srv2 := durableServer(t, dir)
	defer srv2.close()
	h2 := testHandler(t, srv2)
	if !srv2.recovery.Warm {
		t.Fatalf("restart was cold: %+v", srv2.recovery)
	}
	if got := srv2.current().dyn.Snapshot().Generation; got != wantGen {
		t.Fatalf("generation after warm restart: %d, want %d", got, wantGen)
	}
	health := decodeObj(t, get(t, h2, "/v1/healthz"))
	persist, ok := health["persist"].(map[string]any)
	if !ok || persist["warmStart"] != true {
		t.Fatalf("healthz persist block: %v", health["persist"])
	}
	metrics := get(t, h2, "/v1/metrics").Body.String()
	for _, want := range []string{
		"# TYPE reccd_persist_checkpoints_total counter",
		"reccd_persist_wal_records 0",
		"reccd_persist_snapshot_age_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCheckpointInterval: with -checkpoint-interval set, a durable writer
// absorbs its WAL into a fresh snapshot on its own, with no
// POST /v1/checkpoint, and close stops the ticker before the index closes
// (the package's leak check fails on a ticker that outlives it).
func TestCheckpointInterval(t *testing.T) {
	srv := durableServerCfg(t, t.TempDir(), func(c *serverConfig) {
		c.CheckpointInterval = 20 * time.Millisecond
	})
	h := testHandler(t, srv)
	persisted := func() map[string]any {
		t.Helper()
		p, ok := decodeObj(t, get(t, h, "/v1/healthz"))["persist"].(map[string]any)
		if !ok {
			t.Fatal("healthz has no persist block")
		}
		return p
	}
	before := persisted()["checkpoints"].(float64)
	for _, e := range [][2]int{{0, 100}, {110, 119}, {111, 118}} {
		rec := do(t, h, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"u":%d,"v":%d}`, e[0], e[1]))
		if rec.Code != http.StatusOK {
			t.Fatalf("add %v: status %d (%s)", e, rec.Code, rec.Body.String())
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for p := persisted(); p["walRecords"] != float64(0) || p["checkpoints"].(float64) <= before; p = persisted() {
		if time.Now().After(deadline) {
			t.Fatalf("no interval checkpoint absorbed the WAL within 2s: %v (checkpoints before the adds: %v)", p, before)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.close()
	dyn := srv.current().dyn
	after := dyn.PersistStats().Checkpoints
	time.Sleep(100 * time.Millisecond)
	if got := dyn.PersistStats().Checkpoints; got != after {
		t.Fatalf("checkpoints went from %d to %d after close", after, got)
	}
}

// TestAnsweredNodesGauge pins the witness-table gauge and healthz field: a
// durable cold start's initial checkpoint stores the index and computes no
// answer, so the count reads 0 before any query and n after one
// /v1/summary; a mutation publishes a generation with a table of its own,
// which reads 0 until queries reach it.
func TestAnsweredNodesGauge(t *testing.T) {
	srv := durableServer(t, t.TempDir())
	defer srv.close()
	h := testHandler(t, srv)
	n := srv.current().dyn.Snapshot().N
	answered := func(what string, want int) {
		t.Helper()
		if got := decodeObj(t, get(t, h, "/v1/healthz"))["answeredNodes"]; got != float64(want) {
			t.Fatalf("%s: healthz answeredNodes = %v, want %d", what, got, want)
		}
		metric := fmt.Sprintf("reccd_index_answered_nodes %d\n", want)
		if out := get(t, h, "/v1/metrics").Body.String(); !strings.Contains(out, metric) {
			t.Fatalf("%s: metrics missing %q:\n%s", what, metric, out)
		}
	}
	answered("cold start", 0)
	if rec := get(t, h, "/v1/summary"); rec.Code != http.StatusOK {
		t.Fatalf("summary: status %d (%s)", rec.Code, rec.Body.String())
	}
	answered("after one summary", n)

	rec := do(t, h, http.MethodPost, "/v1/edges", `{"u":0,"v":100}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("add: status %d (%s)", rec.Code, rec.Body.String())
	}
	if mode := decodeObj(t, rec)["mode"]; mode != "incremental" {
		t.Fatalf("add: mode %v, want incremental", mode)
	}
	answered("after the mutation", 0)
	if rec := get(t, h, "/v1/eccentricity?node=3,7,3"); rec.Code != http.StatusOK {
		t.Fatalf("eccentricity: status %d (%s)", rec.Code, rec.Body.String())
	}
	answered("after one query of two distinct ids", 2)
}

// TestErrorPathsCloseFiles drives reccd's error branches that follow a
// successful open: each must close what it opened.
func TestErrorPathsCloseFiles(t *testing.T) {
	g, err := resistecc.ScaleFreeMixed(120, 1, 4, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := []resistecc.Option{resistecc.WithEpsilon(0.3), resistecc.WithDim(64), resistecc.WithSeed(5)}

	t.Run("newServer/trace-out", func(t *testing.T) {
		testutil.CheckFiles(t)
		cfg := defaultConfig()
		cfg.DataDir = t.TempDir()
		cfg.TraceOut = filepath.Join(t.TempDir(), "missing", "trace.bin")
		if _, err := newServer(context.Background(), g, graph.ComposeIDs(g.N(), nil, nil), g.N(), g.M(), opts, cfg); err == nil {
			t.Fatal("newServer with a -trace-out in a missing directory succeeded")
		}
	})
	t.Run("Restore/ids", func(t *testing.T) {
		testutil.CheckFiles(t)
		d, err := resistecc.NewDynamicIndex(context.Background(), g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snapshot")
		err = d.SaveSnapshot(path)
		d.Close()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		upstream := httptest.NewServer(http.NotFoundHandler())
		defer upstream.Close()
		rf := &replicaFollower{s: &server{}, upstream: upstream.URL, client: upstream.Client()}
		if err := rf.Restore(context.Background(), snap); err == nil {
			t.Fatal("Restore succeeded without the writer's id map")
		}
	})
}
