package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer fakes the reccd /v1 surface closely enough to exercise the
// HTTP executor and the load driver: fixed eccentricities, a generation
// counter bumped by mutations, and injectable failure and slowness.
type stubServer struct {
	gen      atomic.Uint64
	rebuilds atomic.Uint64
	// failEvery makes every Nth query answer 503 (0 = never).
	failEvery int64
	queries   atomic.Int64
	// delay stalls every query before it answers.
	delay time.Duration
}

func (s *stubServer) ecc(node int64) EccResult {
	return EccResult{Node: node, Ecc: float64(node) * 1.5, Farthest: node + 1}
}

func (s *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/eccentricity", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(s.delay)
		if n := s.queries.Add(1); s.failEvery > 0 && n%s.failEvery == 0 {
			http.Error(w, `{"error":{"code":"overloaded"}}`, http.StatusServiceUnavailable)
			return
		}
		var out []map[string]any
		for _, part := range strings.Split(r.URL.Query().Get("node"), ",") {
			id, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				http.Error(w, "bad node", http.StatusBadRequest)
				return
			}
			e := s.ecc(id)
			out = append(out, map[string]any{"node": e.Node, "eccentricity": e.Ecc, "farthest": e.Farthest})
		}
		w.Header().Set("X-Index-Generation", strconv.FormatUint(s.gen.Load(), 10))
		json.NewEncoder(w).Encode(out)
	})
	mutate := func(w http.ResponseWriter, r *http.Request) {
		g := s.gen.Add(1)
		fmt.Fprintf(w, `{"generation":%d,"mode":"incremental","drift":0.25}`, g)
	}
	mux.HandleFunc("POST /v1/edges", mutate)
	mux.HandleFunc("DELETE /v1/edges", mutate)
	mux.HandleFunc("POST /v1/rebuild", func(w http.ResponseWriter, r *http.Request) {
		s.rebuilds.Add(1)
		s.gen.Add(1)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"scheduled":true}`)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"generation":%d,"rebuilds":%d,"rebuildInProgress":false}`,
			s.gen.Load(), s.rebuilds.Load())
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Index-Generation", strconv.FormatUint(s.gen.Load(), 10))
		fmt.Fprintf(w, `{"generation":%d}`, s.gen.Load())
	})
	return mux
}

func TestHTTPExecutorOps(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()
	ex := &HTTPExecutor{Base: srv.URL, Client: srv.Client()}
	ctx := context.Background()

	res, err := ex.Do(ctx, Record{Seq: 1, Op: OpBatchQuery, Args: []int64{3, 8}})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	want := DigestQuery([]EccResult{stub.ecc(3), stub.ecc(8)})
	if res.Digest != want || res.Gen != 0 {
		t.Fatalf("query result %+v, want digest %d gen 0", res, want)
	}

	res, err = ex.Do(ctx, Record{Seq: 2, Op: OpAddEdge, Args: []int64{1, 2}})
	if err != nil {
		t.Fatalf("add: %v", err)
	}
	if res.Gen != 1 || res.Digest != DigestMutation(1, "incremental", 0.25) {
		t.Fatalf("add result %+v", res)
	}

	res, err = ex.Do(ctx, Record{Seq: 3, Op: OpRebuild})
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if res.Gen != 1 || res.Digest != DigestGen(1) {
		t.Fatalf("rebuild result %+v, want pre-rebuild gen 1", res)
	}

	res, err = ex.Do(ctx, Record{Seq: 4, Op: OpCheckpoint})
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if res.Gen != 2 || res.Digest != DigestGen(2) {
		t.Fatalf("checkpoint result %+v", res)
	}

	if _, err := ex.Do(ctx, Record{Seq: 5, Op: OpRemoveEdge, Args: []int64{1}}); err == nil {
		t.Fatal("malformed mutation record accepted")
	}
}

func TestRunLoadCleanRun(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	w := Workload{Nodes: 60, Ops: 300, Seed: 11, MaxBatch: 4, MutationRate: 0.1, Rate: 20000}
	recs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(context.Background(), recs, srv.URL, LoadOptions{Concurrency: 16, Client: srv.Client()})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Ops != len(recs) {
		t.Fatalf("dispatched %d ops, want %d", rep.Ops, len(recs))
	}
	if rep.Errors != 0 || rep.ServerErrors != 0 {
		t.Fatalf("clean stub produced errors: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.AchievedRate <= 0 {
		t.Fatalf("latency summary implausible: %+v", rep)
	}
}

func TestRunLoadClassifies5xx(t *testing.T) {
	stub := &stubServer{failEvery: 5}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	recs, err := Workload{Nodes: 40, Ops: 200, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(context.Background(), recs, srv.URL, LoadOptions{Concurrency: 8, AsFast: true, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServerErrors == 0 {
		t.Fatal("injected 503s not counted as server errors")
	}
	if rep.Errors != 0 {
		t.Fatalf("503s misclassified as transport errors: %+v", rep)
	}
}

// A paced op is timed from its due time, not from when it got a
// concurrency slot: ten ops all due at t=0 through a single slot against a
// server that stalls each one see latencies of about 1×, 2×, …, 10× the
// stall, so P99 (the slowest of ten) must reflect the queue behind it.
func TestRunLoadChargesQueueingDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	stub := &stubServer{delay: delay}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = Record{Seq: uint64(i + 1), Op: OpQuery, Args: []int64{int64(i)}}
	}
	rep, err := RunLoad(context.Background(), recs, srv.URL, LoadOptions{Concurrency: 1, Client: srv.Client()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != len(recs) || rep.Errors != 0 || rep.ServerErrors != 0 {
		t.Fatalf("unclean run: %+v", rep)
	}
	if rep.P99 < 8*delay {
		t.Fatalf("P99 %v is under 8× the %v stall: queueing for the slot was not charged", rep.P99, delay)
	}
}

func TestRunLoadCancellation(t *testing.T) {
	stub := &stubServer{}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	// A far-future arrival delta parks the dispatcher; cancellation must
	// unblock it.
	recs := []Record{
		{Seq: 1, Op: OpQuery, Args: []int64{1}},
		{Seq: 2, DeltaNanos: 60e9, Op: OpQuery, Args: []int64{2}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rep *LoadReport
	var rerr error
	go func() {
		rep, rerr = RunLoad(ctx, recs, srv.URL, LoadOptions{Concurrency: 2, Client: srv.Client()})
		close(done)
	}()
	cancel()
	<-done
	if rerr == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if rep.Ops > 1 {
		t.Fatalf("dispatcher ran past cancellation: %d ops", rep.Ops)
	}
}
