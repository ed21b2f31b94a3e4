package repl

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/lifecycle"
	"resistecc/internal/persist"
)

// testWriter is a writer-side fixture: a durable store behind Source
// handlers on an httptest server, with a controllable served generation.
type testWriter struct {
	store *persist.Store
	gen   atomic.Uint64
	srv   *httptest.Server
	g     *graph.Graph
	fast  *ecc.Fast
}

func newTestWriter(t *testing.T) *testWriter {
	t.Helper()
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	g := graph.RandomConnected(30, 60, 7)
	p := persist.Params{Epsilon: 0.3, Dim: 32, Seed: 21}
	f, err := ecc.NewFastContext(context.Background(), g, ecc.FastOptions{Sketch: p.SketchOptions(), Hull: p.HullOptions()})
	if err != nil {
		t.Fatal(err)
	}
	tw := &testWriter{store: st, g: g, fast: f}
	tw.gen.Store(1)
	src := &Source{Store: st, Generation: tw.gen.Load}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/snapshot", src.ServeSnapshot)
	mux.HandleFunc("GET /v1/repl/wal", src.ServeWAL)
	tw.srv = httptest.NewServer(mux)
	t.Cleanup(tw.srv.Close)
	return tw
}

// checkpoint writes a snapshot at (seq, gen) and bumps the served generation.
func (tw *testWriter) checkpoint(t *testing.T, seq, gen uint64) {
	t.Helper()
	cs := lifecycle.CheckpointState{Seq: seq, Gen: gen, Graph: tw.g, Fast: tw.fast}
	p := persist.Params{Epsilon: 0.3, Dim: 32, Seed: 21}
	if err := tw.store.Checkpoint(persist.Capture(cs, p, persist.Fingerprint(tw.g))); err != nil {
		t.Fatal(err)
	}
	tw.gen.Store(gen)
}

// append logs n mutations continuing from seq from+1, bumping the served
// generation per record the way incremental writer mutations do.
func (tw *testWriter) append(t *testing.T, from uint64, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		seq := from + uint64(i)
		if err := tw.store.Append(persist.Record{Seq: seq, Add: true, U: int(seq), V: 0}); err != nil {
			t.Fatal(err)
		}
		tw.gen.Add(1)
	}
}

// fakeFollower mirrors the writer's seq/gen bookkeeping without an index:
// Restore adopts the decoded snapshot's meta, Apply bumps both.
type fakeFollower struct {
	mu       sync.Mutex
	seq, gen uint64 // guarded by mu
	applied  []persist.Record
	restores int
	failNext error // next Apply returns this once
}

func (f *fakeFollower) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

func (f *fakeFollower) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

func (f *fakeFollower) Apply(_ context.Context, rec persist.Record) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.failNext; err != nil {
		f.failNext = nil
		return err
	}
	f.seq = rec.Seq
	f.gen++
	f.applied = append(f.applied, rec)
	return nil
}

func (f *fakeFollower) Restore(_ context.Context, b []byte) error {
	snap, err := persist.ReadSnapshot(b)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq, f.gen = snap.Seq, snap.Gen
	f.restores++
	f.applied = nil
	return nil
}

func newTestTailer(t *testing.T, tw *testWriter, f *fakeFollower) *Tailer {
	t.Helper()
	tl, err := NewTailer(TailerConfig{
		Upstream: tw.srv.URL,
		Follower: f,
		Interval: 10 * time.Millisecond,
		MaxBatch: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTailerInitialSyncRestoresThenTails(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	tw.append(t, 0, 3)

	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores != 1 {
		t.Fatalf("restores = %d, want 1", f.restores)
	}
	if f.Seq() != 3 || len(f.applied) != 3 || f.applied[0].Seq != 1 {
		t.Fatalf("follower seq %d applied %+v", f.Seq(), f.applied)
	}
	if f.Generation() != tw.gen.Load() {
		t.Fatalf("generation %d, writer %d", f.Generation(), tw.gen.Load())
	}
	st := tl.Stats()
	if st.AppliedSeq != 3 || st.UpstreamSeq != 3 || st.Lag != 0 || st.Resyncs != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTailerGapTriggersResync(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	tw.append(t, 0, 3)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Writer rebuilds: checkpoint at seq 5 truncates the WAL past the
	// follower's position, then two more mutations land.
	tw.append(t, 3, 2)
	tw.checkpoint(t, 5, 20)
	tw.append(t, 5, 2)

	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores != 2 {
		t.Fatalf("restores = %d, want 2", f.restores)
	}
	if f.Seq() != 7 || len(f.applied) != 2 || f.applied[0].Seq != 6 {
		t.Fatalf("after gap resync: seq %d applied %+v", f.Seq(), f.applied)
	}
	if got := tl.Stats().Resyncs; got != 2 {
		t.Fatalf("resyncs = %d", got)
	}
}

func TestTailerCaughtUpGenerationMismatchResyncs(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The writer rebuilt without new mutations (e.g. POST /v1/rebuild): its served
	// generation moved but the snapshot hasn't caught up yet — no resync,
	// restoring the same snapshot would change nothing.
	tw.gen.Store(9)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores != 1 {
		t.Fatalf("resynced against a stale snapshot: restores = %d", f.restores)
	}

	// Once the rebuild checkpoint lands, the mismatch is actionable.
	tw.checkpoint(t, 0, 9)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores != 2 || f.Generation() != 9 {
		t.Fatalf("after checkpoint: restores %d gen %d", f.restores, f.Generation())
	}
}

// TestTailerRebasesWhenGenerationsCoincide: the follower applies record 1
// before the writer rebuilds at seq 1 (snapshot generation 3) and then
// applies record 2 (generation 4). Applying record 2 on its old base puts
// the follower at generation 3, the snapshot's number, so only the
// snapshot's identity, not its generation, shows that re-basing helps.
func TestTailerRebasesWhenGenerationsCoincide(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	tw.append(t, 0, 1)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	tw.checkpoint(t, 1, 3)
	tw.append(t, 1, 1)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.restores != 2 || f.Seq() != 2 || f.Generation() != tw.gen.Load() {
		t.Fatalf("restores %d, follower seq %d gen %d, writer gen %d",
			f.restores, f.Seq(), f.Generation(), tw.gen.Load())
	}
}

func TestTailerApplyErrorResyncs(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	tw.append(t, 0, 2)
	f.failNext = errors.New("incremental update impossible")
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The snapshot is still at seq 0, so the resync replays both records.
	if f.restores != 2 || f.Seq() != 2 || len(f.applied) != 2 {
		t.Fatalf("after apply-error resync: restores %d seq %d applied %d",
			f.restores, f.Seq(), len(f.applied))
	}
}

func TestTailerDrainsCappedBatches(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	tw.append(t, 0, 10)
	f := &fakeFollower{}
	tl, err := NewTailer(TailerConfig{
		Upstream: tw.srv.URL,
		Follower: f,
		MaxBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Seq() != 10 || len(f.applied) != 10 {
		t.Fatalf("capped drain stopped early: seq %d applied %d", f.Seq(), len(f.applied))
	}
	if got := tl.Stats().Fetches; got < 4 {
		t.Fatalf("expected ≥4 capped fetches, got %d", got)
	}
}

func TestTailerBackgroundLoopConverges(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := tl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	stop := tl.Start(ctx)
	defer stop()

	tw.append(t, 0, 4)
	deadline := time.Now().Add(5 * time.Second)
	for f.Seq() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop never converged: seq %d", f.Seq())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The stop func Start returns is safe to call from any number of goroutines
// and more than once: shutdown paths converge (a signal handler, a failing
// probe and a deferred cleanup can all reach it). Once any call returns, the
// poll loop has ended.
func TestTailerStopConcurrent(t *testing.T) {
	tw := newTestWriter(t)
	tw.checkpoint(t, 0, 1)
	f := &fakeFollower{}
	tl := newTestTailer(t, tw, f)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := tl.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	stop := tl.Start(ctx)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	stop()

	fetches := tl.Stats().Fetches
	time.Sleep(50 * time.Millisecond) // five poll intervals
	if got := tl.Stats().Fetches; got != fetches {
		t.Fatalf("tailer polled %d more times after stop", got-fetches)
	}
}

// Every failed poll counts once in FetchFailures, and stopping the tailer,
// which cancels the poll in flight, counts nothing. The writer stub answers
// tail fetches with 500 until told to hang; polls run one after another, so
// once a fetch hangs, every failed one before it has been counted.
func TestTailerCountsEachFailedPollOnce(t *testing.T) {
	var failed, hung atomic.Int64
	var hang atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/wal" && hang.Load() {
			hung.Add(1)
			<-r.Context().Done()
			return
		}
		if r.URL.Path == "/v1/repl/wal" {
			failed.Add(1)
		}
		http.Error(w, "broken", http.StatusInternalServerError)
	}))
	defer srv.Close()
	f := &fakeFollower{seq: 3, gen: 2} // holds state, so a poll starts with a tail fetch
	tl, err := NewTailer(TailerConfig{Upstream: srv.URL, Follower: f, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(n *atomic.Int64, want int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); n.Load() < want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d tail requests in 5s", n.Load(), want)
			}
		}
	}
	stop := tl.Start(context.Background())
	waitFor(&failed, 5)
	hang.Store(true)
	waitFor(&hung, 1)
	stop()
	st := tl.Stats()
	if st.FetchFailures != uint64(failed.Load()) || st.LastError == "" {
		t.Fatalf("%d failures recorded (last error %q) for %d failed tail requests and a cancelled one",
			st.FetchFailures, st.LastError, failed.Load())
	}
}

func TestSourceRejectsBadRequests(t *testing.T) {
	tw := newTestWriter(t)
	// No snapshot yet: both endpoints refuse.
	resp, err := http.Get(tw.srv.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("snapshot before checkpoint: %d", resp.StatusCode)
	}
	resp, err = http.Get(tw.srv.URL + "/v1/repl/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("wal before checkpoint: %d", resp.StatusCode)
	}
	resp, err = http.Get(tw.srv.URL + "/v1/repl/wal?from=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed from: %d", resp.StatusCode)
	}
}

// backendStub is a minimal routable backend for pool tests.
func backendStub(t *testing.T, gen uint64, fail *atomic.Bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail != nil && fail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Index-Generation", fmt.Sprint(gen))
		fmt.Fprintf(w, `{"path":%q}`, r.URL.Path)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestPoolCandidatesStableAndFiltered(t *testing.T) {
	w := backendStub(t, 10, nil)
	r1 := backendStub(t, 5, nil)
	r2 := backendStub(t, 8, nil)
	p := NewPool(w.URL, []string{r1.URL, r2.URL}, nil, time.Hour)
	p.CheckOnce(context.Background())

	for _, b := range p.Replicas() {
		if !b.Healthy() {
			t.Fatalf("replica %s unhealthy after check", b.URL)
		}
	}
	// Same key, same order, every time.
	first := p.Candidates("/v1/eccentricity?node=7", 0)
	for i := 0; i < 10; i++ {
		again := p.Candidates("/v1/eccentricity?node=7", 0)
		if len(again) != len(first) {
			t.Fatalf("candidate count changed")
		}
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("candidate order changed at %d", j)
			}
		}
	}
	if len(first) != 3 || !first[len(first)-1].IsWriter {
		t.Fatalf("candidates: %d, writer last = %v", len(first), first[len(first)-1].IsWriter)
	}

	// A generation floor drops stale replicas; the writer always stays.
	got := p.Candidates("k", 6)
	if len(got) != 2 || got[0].Generation() != 8 || !got[1].IsWriter {
		t.Fatalf("minGen filter: %+v", got)
	}
	got = p.Candidates("k", 100)
	if len(got) != 1 || !got[0].IsWriter {
		t.Fatalf("floor above all replicas must leave only the writer: %+v", got)
	}
}

func TestPoolProxyRetriesAcrossFailure(t *testing.T) {
	var fail1, fail2 atomic.Bool
	w := backendStub(t, 10, nil)
	r1 := backendStub(t, 10, &fail1)
	r2 := backendStub(t, 10, &fail2)
	p := NewPool(w.URL, []string{r1.URL, r2.URL}, nil, time.Hour)
	p.CheckOnce(context.Background())

	// Both replicas dead mid-flight (health check hasn't noticed): the
	// request still succeeds via retry down to the writer.
	fail1.Store(true)
	fail2.Store(true)
	req := httptest.NewRequest(http.MethodGet, "/v1/eccentricity?node=3", nil)
	rec := httptest.NewRecorder()
	p.ProxyQuery(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxy with dead replicas: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Served-By"); got != w.URL {
		t.Fatalf("served by %q, want writer %q", got, w.URL)
	}
	st := p.Stats()
	if st.Retries < 1 || st.WriterFallbacks != 1 {
		t.Fatalf("stats after failover: %+v", st)
	}

	// Replicas recover: the same key routes back to a replica.
	fail1.Store(false)
	fail2.Store(false)
	rec = httptest.NewRecorder()
	p.ProxyQuery(rec, httptest.NewRequest(http.MethodGet, "/v1/eccentricity?node=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("proxy after recovery: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Served-By"); got == w.URL {
		t.Fatalf("healthy replicas ignored")
	}
}

func TestPoolMinGenerationHeader(t *testing.T) {
	w := backendStub(t, 10, nil)
	r1 := backendStub(t, 2, nil)
	p := NewPool(w.URL, []string{r1.URL}, nil, time.Hour)
	p.CheckOnce(context.Background())

	req := httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	req.Header.Set("X-Min-Generation", "5")
	rec := httptest.NewRecorder()
	p.ProxyQuery(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Served-By") != w.URL {
		t.Fatalf("floor must route to writer: %d served by %q", rec.Code, rec.Header().Get("X-Served-By"))
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/summary", nil)
	req.Header.Set("X-Min-Generation", "bogus")
	rec = httptest.NewRecorder()
	p.ProxyQuery(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed floor: %d", rec.Code)
	}
}

func TestPoolHealthLoopEjectsAndReadmits(t *testing.T) {
	var fail atomic.Bool
	w := backendStub(t, 10, nil)
	r1 := backendStub(t, 10, &fail)
	p := NewPool(w.URL, []string{r1.URL}, nil, 5*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := p.Start(ctx)
	defer stop()

	waitFor := func(want bool) {
		deadline := time.Now().Add(5 * time.Second)
		for p.Replicas()[0].Healthy() != want {
			if time.Now().After(deadline) {
				t.Fatalf("replica health never became %v", want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(true)
	fail.Store(true)
	waitFor(false)
	fail.Store(false)
	waitFor(true)
}

// The pool's stop func, like the tailer's, is safe to call concurrently and
// repeatedly, and once any call returns the health loop has ended: a
// backend that fails afterwards stays marked healthy.
func TestPoolStopConcurrent(t *testing.T) {
	var fail atomic.Bool
	w := backendStub(t, 1, &fail)
	p := NewPool(w.URL, nil, nil, 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := p.Start(ctx)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop()
		}()
	}
	wg.Wait()
	stop()

	if !p.Writer().Healthy() {
		t.Fatal("writer unhealthy after the initial check")
	}
	fail.Store(true)
	time.Sleep(50 * time.Millisecond) // five check intervals
	if !p.Writer().Healthy() {
		t.Fatal("health loop still checking after stop")
	}
}
