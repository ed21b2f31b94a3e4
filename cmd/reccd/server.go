package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resistecc"
	"resistecc/internal/obs"
	"resistecc/internal/repl"
	"resistecc/internal/trace"
)

// idMap translates between external node ids (the labels clients use: the
// original ids from the edge-list file) and the internal compact ids of the
// largest-connected-component subgraph the index is built on.
//
// Two relabelling steps happen on load — edge-list label interning
// (arbitrary int64 labels → 0..n−1 in order of appearance) and LCC
// extraction (component nodes → 0..k−1) — and the seed server dropped both,
// silently answering for whatever internal node happened to carry the
// queried number. idMap composes the two so clients only ever see the ids
// they put in the file.
type idMap struct {
	toExternal []int64       // internal (LCC) id → external id
	toInternal map[int64]int // external id → internal (LCC) id
}

// newIDMap composes the edge-list label mapping (labels[compact] = external;
// nil means external == compact) with the LCC relabelling
// (lccToOrig[internal] = compact; nil means the identity over n nodes).
func newIDMap(n int, labels []int64, lccToOrig []int) *idMap {
	m := &idMap{
		toExternal: make([]int64, n),
		toInternal: make(map[int64]int, n),
	}
	for v := 0; v < n; v++ {
		orig := v
		if lccToOrig != nil {
			orig = lccToOrig[v]
		}
		ext := int64(orig)
		if labels != nil {
			ext = labels[orig]
		}
		m.toExternal[v] = ext
		m.toInternal[ext] = v
	}
	return m
}

// external translates an internal id; it tolerates out-of-range ids (which
// cannot come from a mapped query) by echoing them, so diagnostics never
// panic.
func (m *idMap) external(v int) int64 {
	if v < 0 || v >= len(m.toExternal) {
		return int64(v)
	}
	return m.toExternal[v]
}

func (m *idMap) externals(vs []int) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = m.external(v)
	}
	return out
}

// serverConfig holds the request-handling knobs of the service.
type serverConfig struct {
	// MaxBatch caps the number of ids one /eccentricity request may carry
	// (0 = unlimited); oversize batches are rejected with 413 so a single
	// request cannot do unbounded work.
	MaxBatch int
	// MaxInFlight caps concurrently executing requests (0 = unlimited);
	// excess load is shed with 503.
	MaxInFlight int
	// ReadTimeout/WriteTimeout/IdleTimeout configure the http.Server.
	ReadTimeout, WriteTimeout, IdleTimeout time.Duration
	// ShutdownGrace bounds how long graceful shutdown waits for in-flight
	// requests to drain.
	ShutdownGrace time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
	// DriftThreshold is the lifecycle ε_drift: accumulated incremental-update
	// error that triggers a background rebuild (0 = library default 0.5).
	DriftThreshold float64
	// MaxDeletions forces a rebuild after this many removals (0 = default 16).
	MaxDeletions int
	// MutationQueue is the mutation queue capacity (0 = default 64).
	MutationQueue int
	// DataDir enables durability: index state lives there as a checksummed
	// snapshot plus a mutation WAL, and startup warm-restores from it
	// (resistecc.OpenDynamicIndex). Empty = in-memory only.
	DataDir string
	// CheckpointInterval adds time-based checkpoints on top of the automatic
	// after-every-rebuild ones, bounding WAL growth (and replay time) during
	// long stretches of incremental-only mutations. 0 disables the ticker.
	CheckpointInterval time.Duration
	// TraceOut records every accepted API operation — queries, mutations,
	// rebuilds, checkpoints — into a RECCTRC1 trace file for bit-exact
	// replay and load generation (recc replay / recc loadgen). Empty
	// disables recording.
	TraceOut string
	// TraceSync fsyncs the trace after every Nth record, the same policy
	// knob the persist WAL uses; 0 buffers until shutdown.
	TraceSync int
}

func defaultConfig() serverConfig {
	return serverConfig{
		MaxBatch:      256,
		MaxInFlight:   128,
		ReadTimeout:   5 * time.Second,
		WriteTimeout:  30 * time.Second,
		IdleTimeout:   2 * time.Minute,
		ShutdownGrace: 10 * time.Second,
	}
}

// server answers resistance-eccentricity queries over a DynamicIndex: a
// generation-numbered FASTQUERY index that absorbs edge mutations without
// downtime. Every handler pins one immutable snapshot for the whole request
// (so batches are internally consistent) and stamps its generation on the
// response as X-Index-Generation. The distribution summary is cached per
// generation.
type server struct {
	// cur is the served engine: the index plus its id translation, swapped
	// atomically as one unit. On a writer it is set once at construction; a
	// replica replaces it on every snapshot re-base (the shipped graph — and
	// with it the id mapping — may have changed). nil only on a replica that
	// has not completed its first sync.
	cur  atomic.Pointer[serving]
	role string
	cfg  serverConfig
	reg  *obs.Registry

	// totalNodes/totalEdges describe the input graph before LCC extraction,
	// reported by /healthz so operators can see how much was dropped.
	totalNodes, totalEdges int
	buildTime              time.Duration

	// recovery reports how a durable index started (warm vs cold and why);
	// zero when DataDir is unset. stopCheckpoint ends the interval ticker.
	recovery       resistecc.RecoveryInfo
	durable        bool
	stopCheckpoint chan struct{}
	checkpointWG   sync.WaitGroup

	// source serves the replication feed (writer with a data directory);
	// tailer pulls it (replica). Each nil on the roles that lack it.
	source *repl.Source
	tailer *repl.Tailer

	// rec captures accepted API operations into a trace file (-trace-out);
	// nil when recording is off — every hook is nil-safe.
	rec *trace.Recorder

	sumMu  sync.Mutex
	sumFor *serving        // guarded by sumMu; engine the cache was computed on
	sumGen uint64          // guarded by sumMu
	sum    summaryResponse // guarded by sumMu
}

// serving bundles one index with the id mapping describing it.
type serving struct {
	dyn *resistecc.DynamicIndex
	ids *idMap
}

// current returns the served engine (nil on a replica before its first
// sync). Handlers load it once and use that one view for the whole request.
func (s *server) current() *serving { return s.cur.Load() }

// stats reports lifecycle state, zero before the first sync so metric
// closures registered early never panic.
func (s *server) stats() resistecc.DynamicStats {
	if sv := s.current(); sv != nil {
		return sv.dyn.Stats()
	}
	return resistecc.DynamicStats{}
}

// summaryResponse is the cached /summary payload. Everything — including
// the hull-pair diameter the seed recomputed in O(l²) per request — is
// computed once per index generation, with node ids already translated to
// external form.
type summaryResponse struct {
	Radius       float64 `json:"radius"`
	Diameter     float64 `json:"diameter"`
	DiameterPair []int64 `json:"diameterPair"`
	HullDiameter float64 `json:"hullDiameter"`
	Mean         float64 `json:"mean"`
	Skewness     float64 `json:"skewness"`
	Center       []int64 `json:"center"`
}

// newServer builds the dynamic index over g (already reduced to its LCC)
// and wires the id translation. inputNodes/inputEdges describe the pre-LCC
// input graph, for /healthz. ctx bounds the initial build: cancelling it
// (e.g. a shutdown signal during a long cold start) abandons the build.
func newServer(ctx context.Context, g *resistecc.Graph, ids *idMap, inputNodes, inputEdges int,
	opts []resistecc.Option, cfg serverConfig) (*server, error) {
	start := time.Now()
	opts = append(opts,
		resistecc.WithDriftThreshold(cfg.DriftThreshold),
		resistecc.WithMaxDeletions(cfg.MaxDeletions),
		resistecc.WithMutationQueue(cfg.MutationQueue),
	)
	var dyn *resistecc.DynamicIndex
	var rec resistecc.RecoveryInfo
	var err error
	if cfg.DataDir != "" {
		dyn, rec, err = resistecc.OpenDynamicIndex(ctx, cfg.DataDir, g, opts...)
	} else {
		dyn, err = resistecc.NewDynamicIndex(ctx, g, opts...)
	}
	if err != nil {
		return nil, err
	}
	s := &server{
		role: roleWriter, cfg: cfg,
		reg:        obs.NewRegistry("reccd"),
		totalNodes: inputNodes, totalEdges: inputEdges,
		buildTime: time.Since(start),
		recovery:  rec,
		durable:   cfg.DataDir != "",
	}
	s.cur.Store(&serving{dyn: dyn, ids: ids})
	if err := s.openRecorder(); err != nil {
		dyn.Close()
		return nil, err
	}
	s.publishBuildGauges()
	s.publishLifecycleGauges()
	if s.durable {
		s.publishPersistMetrics()
		s.startCheckpointTicker()
		s.source = &repl.Source{
			Store:      dyn.ReplicationStore(),
			Generation: func() uint64 { return dyn.Snapshot().Generation },
		}
		s.publishSourceMetrics()
	}
	return s, nil
}

// close stops the checkpoint ticker and releases the lifecycle workers (used
// by tests and graceful shutdown; the process otherwise ends with the server).
func (s *server) close() {
	if s.stopCheckpoint != nil {
		close(s.stopCheckpoint)
		s.checkpointWG.Wait()
		s.stopCheckpoint = nil
	}
	if s.tailer != nil {
		s.tailer.Stop()
	}
	if sv := s.current(); sv != nil {
		sv.dyn.Close()
	}
	if err := s.rec.Close(); err != nil {
		log.Printf("reccd: closing trace recorder: %v", err)
	}
}

// openRecorder starts trace recording when TraceOut is set and exports the
// recorder counters. Shared by the writer and replica constructors.
func (s *server) openRecorder() error {
	if s.cfg.TraceOut == "" {
		return nil
	}
	rec, err := trace.NewRecorder(s.cfg.TraceOut, trace.RecorderOptions{SyncEvery: s.cfg.TraceSync})
	if err != nil {
		return fmt.Errorf("opening trace recorder: %w", err)
	}
	s.rec = rec
	publishTraceMetrics(s.reg, rec)
	return nil
}

// publishTraceMetrics exports recorder activity; shared with the router,
// which records through its proxy tee rather than a *server.
func publishTraceMetrics(reg *obs.Registry, rec *trace.Recorder) {
	reg.SetCounterFunc("trace_records_total", func() float64 { return float64(rec.Stats().Records) })
	reg.SetCounterFunc("trace_bytes_total", func() float64 { return float64(rec.Stats().Bytes) })
	reg.SetCounterFunc("trace_write_failures_total", func() float64 { return float64(rec.Stats().WriteFailures) })
}

// startCheckpointTicker checkpoints every CheckpointInterval so the WAL (and
// restart replay time) stays bounded even when no rebuild ever triggers. A
// stale or already-current index makes the call a cheap no-op.
func (s *server) startCheckpointTicker() {
	if s.cfg.CheckpointInterval <= 0 {
		return
	}
	s.stopCheckpoint = make(chan struct{})
	s.checkpointWG.Add(1)
	go func() {
		defer s.checkpointWG.Done()
		t := time.NewTicker(s.cfg.CheckpointInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.current().dyn.Checkpoint(); err != nil && !errors.Is(err, resistecc.ErrIndexStale) {
					log.Printf("reccd: interval checkpoint: %v", err)
				}
			case <-s.stopCheckpoint:
				return
			}
		}
	}()
}

// idx returns the FastIndex of the current generation (nil on a replica
// before its first sync).
func (s *server) idx() *resistecc.FastIndex {
	sv := s.current()
	if sv == nil {
		return nil
	}
	return sv.dyn.Snapshot().Index
}

// publishBuildGauges exports generation-1 construction statistics as static
// gauges on /metrics.
func (s *server) publishBuildGauges() {
	ix := s.idx()
	if ix == nil {
		return
	}
	st := ix.BuildStats()
	s.reg.SetGauge("index_sketch_dim", float64(st.SketchDim))
	s.reg.SetGauge("index_solver_total_iters", float64(st.SolverTotalIters))
	s.reg.SetGauge("index_solver_max_iters", float64(st.SolverMaxIters))
	s.reg.SetGauge("index_solver_max_residual", st.SolverMaxResidual)
	s.reg.SetGauge("index_build_seconds", s.buildTime.Seconds())
}

// publishLifecycleGauges exports the moving lifecycle state as live gauges,
// sampled at every /metrics scrape.
func (s *server) publishLifecycleGauges() {
	stat := func(f func(resistecc.DynamicStats) float64) func() float64 {
		return func() float64 { return f(s.stats()) }
	}
	s.reg.SetGaugeFunc("index_generation", stat(func(st resistecc.DynamicStats) float64 { return float64(st.Generation) }))
	s.reg.SetGaugeFunc("index_nodes", stat(func(st resistecc.DynamicStats) float64 { return float64(st.IndexN) }))
	s.reg.SetGaugeFunc("index_edges", stat(func(st resistecc.DynamicStats) float64 { return float64(st.IndexM) }))
	s.reg.SetGaugeFunc("index_hull_size", func() float64 {
		if ix := s.idx(); ix != nil {
			return float64(ix.BoundarySize())
		}
		return 0
	})
	s.reg.SetGaugeFunc("mutation_queue_depth", stat(func(st resistecc.DynamicStats) float64 { return float64(st.QueueDepth) }))
	s.reg.SetGaugeFunc("index_drift", stat(func(st resistecc.DynamicStats) float64 { return st.Drift }))
	s.reg.SetGaugeFunc("index_updates", stat(func(st resistecc.DynamicStats) float64 { return float64(st.Updates) }))
	s.reg.SetGaugeFunc("index_deletions", stat(func(st resistecc.DynamicStats) float64 { return float64(st.Deletions) }))
	s.reg.SetGaugeFunc("index_rebuilds", stat(func(st resistecc.DynamicStats) float64 { return float64(st.Rebuilds) }))
	s.reg.SetGaugeFunc("index_rebuild_failures", stat(func(st resistecc.DynamicStats) float64 { return float64(st.RebuildFailures) }))
	s.reg.SetGaugeFunc("index_rebuild_in_progress", stat(func(st resistecc.DynamicStats) float64 {
		if st.RebuildInProgress {
			return 1
		}
		return 0
	}))
	s.reg.SetGaugeFunc("index_last_rebuild_seconds", stat(func(st resistecc.DynamicStats) float64 { return st.LastRebuildSeconds }))
}

// publishPersistMetrics exports the durability state: snapshot freshness and
// WAL depth as live gauges, checkpoint/journal activity as counters. Only
// registered when a data directory is configured.
func (s *server) publishPersistMetrics() {
	pstat := func(f func(resistecc.PersistStats) float64) func() float64 {
		return func() float64 { return f(s.current().dyn.PersistStats()) }
	}
	s.reg.SetGaugeFunc("persist_snapshot_age_seconds", pstat(func(ps resistecc.PersistStats) float64 { return ps.SnapshotAgeSeconds }))
	s.reg.SetGaugeFunc("persist_wal_records", pstat(func(ps resistecc.PersistStats) float64 { return float64(ps.WALRecords) }))
	s.reg.SetGaugeFunc("persist_last_checkpoint_seconds", pstat(func(ps resistecc.PersistStats) float64 { return ps.LastCheckpointSeconds }))
	s.reg.SetCounterFunc("persist_checkpoints_total", pstat(func(ps resistecc.PersistStats) float64 { return float64(ps.Checkpoints) }))
	s.reg.SetCounterFunc("persist_checkpoint_failures_total", pstat(func(ps resistecc.PersistStats) float64 { return float64(ps.CheckpointFailures) }))
	s.reg.SetCounterFunc("persist_journal_failures_total", pstat(func(ps resistecc.PersistStats) float64 { return float64(ps.JournalFailures) }))
}

// publishSourceMetrics exports the writer-side replication feed counters.
func (s *server) publishSourceMetrics() {
	s.reg.SetCounterFunc("repl_snapshots_served_total", func() float64 { return float64(s.source.Stats().SnapshotsServed) })
	s.reg.SetCounterFunc("repl_wal_frames_served_total", func() float64 { return float64(s.source.Stats().FramesServed) })
	s.reg.SetCounterFunc("repl_wal_records_served_total", func() float64 { return float64(s.source.Stats().RecordsServed) })
	s.reg.SetCounterFunc("repl_bytes_served_total", func() float64 { return float64(s.source.Stats().BytesServed) })
}

// publishReplicaMetrics exports the replica-side replication state: lag and
// divergence gauges plus transfer counters, sampled from the tailer.
func (s *server) publishReplicaMetrics() {
	tstat := func(f func(repl.TailerStats) float64) func() float64 {
		return func() float64 { return f(s.tailer.Stats()) }
	}
	s.reg.SetGaugeFunc("repl_applied_seq", tstat(func(ts repl.TailerStats) float64 { return float64(ts.AppliedSeq) }))
	s.reg.SetGaugeFunc("repl_upstream_seq", tstat(func(ts repl.TailerStats) float64 { return float64(ts.UpstreamSeq) }))
	// repl_lag_seq is the sequence-number lag (upstream seq − applied seq).
	s.reg.SetGaugeFunc("repl_lag_seq", tstat(func(ts repl.TailerStats) float64 { return float64(ts.Lag) }))
	s.reg.SetGaugeFunc("repl_last_contact_age_seconds", func() float64 {
		ts := s.tailer.Stats()
		if ts.LastContact.IsZero() {
			return -1
		}
		return time.Since(ts.LastContact).Seconds()
	})
	s.reg.SetCounterFunc("repl_resyncs_total", tstat(func(ts repl.TailerStats) float64 { return float64(ts.Resyncs) }))
	s.reg.SetCounterFunc("repl_fetches_total", tstat(func(ts repl.TailerStats) float64 { return float64(ts.Fetches) }))
	s.reg.SetCounterFunc("repl_fetch_bytes_total", tstat(func(ts repl.TailerStats) float64 { return float64(ts.FetchBytes) }))
	s.reg.SetCounterFunc("repl_fetch_failures_total", tstat(func(ts repl.TailerStats) float64 { return float64(ts.FetchFailures) }))
}

// handler assembles the full middleware stack: routing with per-endpoint
// instrumentation inside, then the error-envelope interceptor (so the mux's
// own plain-text 404/405 pages come out as the structured envelope), then
// the concurrency limiter, then access logging outermost so even shed
// requests get a log line and request id.
//
// The API lives under /v1/ only; unversioned paths 404.
func (s *server) handler(logger *log.Logger) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/healthz", s.reg.InstrumentFunc("healthz", s.handleHealth))
	mux.Handle("GET /v1/eccentricity", s.reg.InstrumentFunc("eccentricity", s.handleEccentricity))
	mux.Handle("GET /v1/resistance", s.reg.InstrumentFunc("resistance", s.handleResistance))
	mux.Handle("GET /v1/summary", s.reg.InstrumentFunc("summary", s.handleSummary))
	mux.Handle("GET /v1/metrics", s.reg.Instrument("metrics", s.reg))

	// Mutations exist only under /v1/. Replicas refuse them with a typed
	// 403: accepting a write outside the writer's WAL would silently fork
	// the replica's history from the writer's.
	mux.Handle("POST /v1/edges", s.reg.InstrumentFunc("edges_add", s.writerOnly(s.handleAddEdge)))
	mux.Handle("DELETE /v1/edges", s.reg.InstrumentFunc("edges_remove", s.writerOnly(s.handleRemoveEdge)))
	mux.Handle("POST /v1/rebuild", s.reg.InstrumentFunc("rebuild", s.writerOnly(s.handleRebuild)))
	mux.Handle("POST /v1/checkpoint", s.reg.InstrumentFunc("checkpoint", s.writerOnly(s.handleCheckpoint)))

	// The replication feed: a durable writer ships snapshots, WAL tails and
	// the id mapping to its replicas.
	if s.source != nil {
		mux.Handle("GET /v1/repl/snapshot", s.reg.InstrumentFunc("repl_snapshot", s.source.ServeSnapshot))
		mux.Handle("GET /v1/repl/wal", s.reg.InstrumentFunc("repl_wal", s.source.ServeWAL))
		mux.Handle("GET /v1/repl/ids", s.reg.InstrumentFunc("repl_ids", s.handleReplIDs))
	}
	mux.Handle("GET /v1/repl/status", s.reg.InstrumentFunc("repl_status", s.handleReplStatus))

	if s.cfg.Pprof {
		mountPprof(mux)
	}
	var h http.Handler = withEnvelope(mux)
	h = s.reg.LimitInFlightWith(s.cfg.MaxInFlight, h, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "overloaded", "server overloaded; retry")
	}))
	return obs.AccessLog(logger, h)
}

// httpServer wraps h in an http.Server with the configured timeouts; the
// seed's bare ListenAndServe had none, leaving the service open to
// slow-loris connections holding goroutines forever.
func httpServer(addr string, h http.Handler, cfg serverConfig) *http.Server {
	return &http.Server{
		Addr:         addr,
		Handler:      h,
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		IdleTimeout:  cfg.IdleTimeout,
	}
}

// writeJSON emits status with a JSON body. A non-2xx body must carry the
// {"error":{code,message}} envelope: use writeError, or embed obs.ErrorBody
// as the router's degraded health view does.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do than log.
		log.Printf("reccd: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	obs.WriteError(w, status, code, format, args...)
}

// envelopeWriter rewrites every error status (>= 400) whose body is not
// JSON into the structured error envelope: the mux's own plain-text 404/405
// pages, and any http.Error or bare WriteHeader behind it. Handler-produced
// errors pass through untouched (they set Content-Type: application/json
// before writing the header).
type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool
}

func (ew *envelopeWriter) WriteHeader(status int) {
	if !ew.wroteHeader {
		ew.wroteHeader = true
		ct := ew.Header().Get("Content-Type")
		if status >= 400 && !strings.HasPrefix(ct, "application/json") {
			ew.intercepted = true
			code, msg := envelopeFor(status)
			ew.Header().Set("Content-Type", "application/json")
			ew.ResponseWriter.WriteHeader(status)
			if err := json.NewEncoder(ew.ResponseWriter).Encode(obs.ErrorEnvelope{Error: obs.ErrorBody{Code: code, Message: msg}}); err != nil {
				log.Printf("reccd: encoding error envelope: %v", err)
			}
			return
		}
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.intercepted {
		return len(p), nil // swallow the plain-text body being replaced
	}
	return ew.ResponseWriter.Write(p)
}

// envelopeFor names an intercepted status: the mux's 404/405 get their API
// wording, any other status its snake-cased status text.
func envelopeFor(status int) (code, msg string) {
	switch status {
	case http.StatusNotFound:
		return "not_found", "no such endpoint"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed", "method not allowed for this endpoint"
	}
	text := http.StatusText(status)
	return strings.ToLower(strings.ReplaceAll(text, " ", "_")), text
}

func withEnvelope(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

// setGeneration stamps the served index generation on the response, so
// clients can correlate answers with mutations they issued.
func setGeneration(w http.ResponseWriter, gen uint64) {
	w.Header().Set("X-Index-Generation", strconv.FormatUint(gen, 10))
}

// writerOnly guards a mutating handler: replicas answer 403 with a typed
// error naming the upstream, instead of forking their history.
func (s *server) writerOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.role != roleWriter {
			writeError(w, http.StatusForbidden, "not_writer",
				"this %s serves reads only; send mutations to the writer", s.role)
			return
		}
		h(w, r)
	}
}

// engine loads the served engine, answering 503 when a replica has not
// finished its first sync yet (the index does not exist).
func (s *server) engine(w http.ResponseWriter) (*serving, bool) {
	sv := s.current()
	if sv == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"replica has not completed its initial sync")
		return nil, false
	}
	return sv, true
}

// handleReplIDs ships the writer's id mapping: element v is the external id
// of internal LCC node v. Replicas fetch it alongside every snapshot — WAL
// records speak internal ids, clients speak external ones.
func (s *server) handleReplIDs(w http.ResponseWriter, _ *http.Request) {
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"toExternal": sv.ids.toExternal})
}

// handleReplStatus reports the replication view of this process: the feed
// counters on a writer, tailing progress on a replica.
func (s *server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"role": s.role}
	if sv := s.current(); sv != nil {
		body["generation"] = sv.dyn.Snapshot().Generation
		body["seq"] = sv.dyn.Seq()
	}
	if s.source != nil {
		st := s.source.Stats()
		body["source"] = map[string]any{
			"snapshotsServed": st.SnapshotsServed,
			"framesServed":    st.FramesServed,
			"recordsServed":   st.RecordsServed,
			"bytesServed":     st.BytesServed,
		}
	}
	if s.tailer != nil {
		ts := s.tailer.Stats()
		body["tail"] = map[string]any{
			"appliedSeq":    ts.AppliedSeq,
			"upstreamSeq":   ts.UpstreamSeq,
			"upstreamGen":   ts.UpstreamGen,
			"lag":           ts.Lag,
			"resyncs":       ts.Resyncs,
			"fetches":       ts.Fetches,
			"fetchBytes":    ts.FetchBytes,
			"fetchFailures": ts.FetchFailures,
			"lastError":     ts.LastError,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// resolveNode parses one external node id and maps it to the internal LCC
// id. Malformed ids are a 400; well-formed ids that don't name an LCC node
// (dropped by preprocessing, or never in the input) are a 404 — the seed
// instead answered for whichever internal node carried the number.
func (sv *serving) resolveNode(w http.ResponseWriter, raw string) (int, bool) {
	ext, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_node_id", "bad node id %q", raw)
		return 0, false
	}
	v, ok := sv.ids.toInternal[ext]
	if !ok {
		writeError(w, http.StatusNotFound, "node_not_found",
			"node %d not in the largest connected component", ext)
		return 0, false
	}
	return v, true
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	snap := sv.dyn.Snapshot()
	st := snap.Index.BuildStats()
	dst := sv.dyn.Stats()
	setGeneration(w, snap.Generation)
	body := map[string]any{
		"status":            "ok",
		"role":              s.role,
		"seq":               sv.dyn.Seq(),
		"nodes":             snap.N,
		"edges":             snap.M,
		"inputNodes":        s.totalNodes,
		"inputEdges":        s.totalEdges,
		"sketchDim":         st.SketchDim,
		"hullBoundary":      st.HullSize,
		"hullCertified":     st.HullCertified,
		"hullRounds":        st.HullRounds,
		"solverIters":       st.SolverTotalIters,
		"solverMaxIter":     st.SolverMaxIters,
		"solverMaxRes":      st.SolverMaxResidual,
		"indexBuildSec":     s.buildTime.Seconds(),
		"maxBatch":          s.cfg.MaxBatch,
		"generation":        snap.Generation,
		"drift":             dst.Drift,
		"queueDepth":        dst.QueueDepth,
		"rebuilds":          dst.Rebuilds,
		"rebuildInProgress": dst.RebuildInProgress,
	}
	if s.durable {
		ps := sv.dyn.PersistStats()
		body["persist"] = map[string]any{
			"warmStart":          s.recovery.Warm,
			"coldStartReason":    s.recovery.Reason,
			"replayedMutations":  s.recovery.ReplayedMutations,
			"snapshotSeq":        ps.SnapshotSeq,
			"snapshotAgeSec":     ps.SnapshotAgeSeconds,
			"walRecords":         ps.WALRecords,
			"checkpoints":        ps.Checkpoints,
			"checkpointFailures": ps.CheckpointFailures,
			"journalFailures":    ps.JournalFailures,
		}
	}
	if s.tailer != nil {
		ts := s.tailer.Stats()
		body["replication"] = map[string]any{
			"upstreamSeq": ts.UpstreamSeq,
			"upstreamGen": ts.UpstreamGen,
			"lag":         ts.Lag,
			"resyncs":     ts.Resyncs,
			"lastError":   ts.LastError,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

type eccResponse struct {
	Node         int64   `json:"node"`
	Eccentricity float64 `json:"eccentricity"`
	Farthest     int64   `json:"farthest"`
}

// handleEccentricity answers GET /eccentricity?node=a,b,c. The response is
// always a JSON array, one element per requested id in request order —
// including for a single id (the seed returned a bare object for one node
// and an array for many, forcing clients to shape-sniff). The whole batch
// is answered from one pinned snapshot.
func (s *server) handleEccentricity(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	raw := r.URL.Query().Get("node")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "missing ?node= (comma-separated ids)")
		return
	}
	parts := strings.Split(raw, ",")
	if s.cfg.MaxBatch > 0 && len(parts) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of %d ids exceeds the %d-id limit", len(parts), s.cfg.MaxBatch)
		return
	}
	nodes := make([]int, 0, len(parts))
	var extIDs []int64 // requested ids for the trace record
	if s.rec != nil {
		extIDs = make([]int64, 0, len(parts))
	}
	for _, p := range parts {
		v, ok := sv.resolveNode(w, p)
		if !ok {
			return
		}
		nodes = append(nodes, v)
		if s.rec != nil {
			extIDs = append(extIDs, sv.ids.external(v))
		}
	}
	snap := sv.dyn.Snapshot()
	// The batched path dedups repeated ids and amortizes one hull scan over
	// the batch; the pooled buffer keeps the query itself allocation-free.
	buf := resistecc.GetBatchBuf()
	vals, err := snap.Index.QueryBatch(nodes, buf)
	if err != nil {
		buf.Release()
		// Unreachable through resolveNode, but surface it cleanly.
		writeError(w, http.StatusBadRequest, "bad_node_id", "%v", err)
		return
	}
	out := make([]eccResponse, len(vals))
	for i, v := range vals {
		out[i] = eccResponse{
			Node:         sv.ids.external(v.Node),
			Eccentricity: v.Value,
			Farthest:     sv.ids.external(v.Farthest),
		}
	}
	buf.Release()
	setGeneration(w, snap.Generation)
	if s.rec != nil {
		op := trace.OpQuery
		if len(out) > 1 {
			op = trace.OpBatchQuery
		}
		res := make([]trace.EccResult, len(out))
		for i, o := range out {
			res[i] = trace.EccResult{Node: o.Node, Ecc: o.Eccentricity, Farthest: o.Farthest}
		}
		s.rec.Record(op, snap.Generation, trace.DigestQuery(res), extIDs...)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleResistance(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	if q.Get("u") == "" || q.Get("v") == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "need integer ?u= and ?v=")
		return
	}
	u, ok := sv.resolveNode(w, q.Get("u"))
	if !ok {
		return
	}
	v, ok := sv.resolveNode(w, q.Get("v"))
	if !ok {
		return
	}
	snap := sv.dyn.Snapshot()
	setGeneration(w, snap.Generation)
	writeJSON(w, http.StatusOK, map[string]any{
		"u": sv.ids.external(u), "v": sv.ids.external(v),
		"resistance": snap.Index.Resistance(u, v),
	})
}

// handleSummary serves the distribution summary, cached per index
// generation: the full distribution scan and the O(l²) hull-pair diameter
// run once after each generation swap; within a generation /summary is O(1).
func (s *server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	snap := sv.dyn.Snapshot()
	s.sumMu.Lock()
	// The cache key is (engine, generation): generations are monotone within
	// one engine but can repeat across a replica re-base, which swaps the
	// whole engine pointer.
	if s.sumFor != sv || s.sumGen != snap.Generation {
		sum := resistecc.Summarize(snap.Index.Distribution())
		s.sum = summaryResponse{
			Radius:   sum.Radius,
			Diameter: sum.Diameter,
			Mean:     sum.Mean,
			Skewness: sum.Skewness,
			Center:   sv.ids.externals(sum.Center),
		}
		// A hull boundary under two nodes has no pair to scan; the summary
		// then omits the hull-pair diameter instead of reporting a fake
		// (0, [0 0]) answer.
		if diam, pair, err := snap.Index.ResistanceDiameter(); err == nil {
			s.sum.HullDiameter = diam
			s.sum.DiameterPair = sv.ids.externals(pair[:])
		}
		s.sumFor = sv
		s.sumGen = snap.Generation
	}
	out := s.sum
	s.sumMu.Unlock()
	setGeneration(w, snap.Generation)
	writeJSON(w, http.StatusOK, out)
}

// edgeRequest is the POST /v1/edges body: one undirected edge in external
// node ids.
type edgeRequest struct {
	U *int64 `json:"u"`
	V *int64 `json:"v"`
}

// mutationResponse reports an accepted mutation: the generation now serving
// it, whether it was absorbed incrementally or awaits a rebuild, and the
// accumulated drift bound.
type mutationResponse struct {
	U                int64   `json:"u"`
	V                int64   `json:"v"`
	Generation       uint64  `json:"generation"`
	Mode             string  `json:"mode"`
	Drift            float64 `json:"drift"`
	RebuildScheduled bool    `json:"rebuildScheduled"`
}

// resolveMutationNodes maps the external endpoints of a mutation to internal
// ids. Mutations are confined to the served component: ids outside it are a
// 404, exactly like queries.
func (sv *serving) resolveMutationNodes(w http.ResponseWriter, uExt, vExt int64) (int, int, bool) {
	u, ok := sv.ids.toInternal[uExt]
	if !ok {
		writeError(w, http.StatusNotFound, "node_not_found",
			"node %d not in the largest connected component", uExt)
		return 0, 0, false
	}
	v, ok := sv.ids.toInternal[vExt]
	if !ok {
		writeError(w, http.StatusNotFound, "node_not_found",
			"node %d not in the largest connected component", vExt)
		return 0, 0, false
	}
	return u, v, true
}

// writeMutationError maps library sentinels to HTTP codes. Messages are
// phrased with the client's external ids — the wrapped library error names
// internal LCC indices, which mean nothing to callers.
func writeMutationError(w http.ResponseWriter, uExt, vExt int64, err error) {
	switch {
	case errors.Is(err, resistecc.ErrDuplicateEdge):
		writeError(w, http.StatusConflict, "duplicate_edge",
			"edge (%d,%d) is already present", uExt, vExt)
	case errors.Is(err, resistecc.ErrEdgeNotFound):
		writeError(w, http.StatusNotFound, "edge_not_found",
			"edge (%d,%d) is not present", uExt, vExt)
	case errors.Is(err, resistecc.ErrDisconnected):
		writeError(w, http.StatusConflict, "would_disconnect",
			"removing edge (%d,%d) would disconnect the graph", uExt, vExt)
	case errors.Is(err, resistecc.ErrSelfLoop):
		writeError(w, http.StatusBadRequest, "self_loop",
			"self loop (%d,%d) is not allowed", uExt, vExt)
	case errors.Is(err, resistecc.ErrNodeOutOfRange):
		writeError(w, http.StatusNotFound, "node_not_found",
			"edge (%d,%d) names a node outside the served component", uExt, vExt)
	case errors.Is(err, resistecc.ErrIndexClosed):
		writeError(w, http.StatusServiceUnavailable, "index_closed", "index is shut down")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "mutation_timeout", "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", "%v", err)
	}
}

func (s *server) writeMutation(w http.ResponseWriter, op trace.Op, uExt, vExt int64, res resistecc.MutationResult) {
	setGeneration(w, res.Generation)
	s.rec.Record(op, res.Generation,
		trace.DigestMutation(res.Generation, string(res.Mode), res.Drift), uExt, vExt)
	writeJSON(w, http.StatusOK, mutationResponse{
		U: uExt, V: vExt,
		Generation:       res.Generation,
		Mode:             string(res.Mode),
		Drift:            res.Drift,
		RebuildScheduled: res.RebuildScheduled,
	})
}

// handleAddEdge implements POST /v1/edges with body {"u":…,"v":…}.
func (s *server) handleAddEdge(w http.ResponseWriter, r *http.Request) {
	var req edgeRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.U == nil || req.V == nil {
		writeError(w, http.StatusBadRequest, "bad_request",
			`body must be JSON {"u":<id>,"v":<id>}`)
		return
	}
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	u, v, ok := sv.resolveMutationNodes(w, *req.U, *req.V)
	if !ok {
		return
	}
	res, err := sv.dyn.AddEdge(r.Context(), u, v)
	if err != nil {
		writeMutationError(w, *req.U, *req.V, err)
		return
	}
	s.writeMutation(w, trace.OpAddEdge, *req.U, *req.V, res)
}

// handleRemoveEdge implements DELETE /v1/edges?u=…&v=….
func (s *server) handleRemoveEdge(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("u") == "" || q.Get("v") == "" {
		writeError(w, http.StatusBadRequest, "missing_parameter", "need integer ?u= and ?v=")
		return
	}
	uExt, err := strconv.ParseInt(strings.TrimSpace(q.Get("u")), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_node_id", "bad node id %q", q.Get("u"))
		return
	}
	vExt, err := strconv.ParseInt(strings.TrimSpace(q.Get("v")), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_node_id", "bad node id %q", q.Get("v"))
		return
	}
	sv, ok := s.engine(w)
	if !ok {
		return
	}
	u, v, ok := sv.resolveMutationNodes(w, uExt, vExt)
	if !ok {
		return
	}
	res, err := sv.dyn.RemoveEdge(r.Context(), u, v)
	if err != nil {
		writeMutationError(w, uExt, vExt, err)
		return
	}
	s.writeMutation(w, trace.OpRemoveEdge, uExt, vExt, res)
}

// handleCheckpoint implements POST /v1/checkpoint: force an immediate
// snapshot into the data directory, absorbing the WAL (e.g. before a planned
// restart, so it comes up warm with nothing to replay). Requires -data-dir;
// while a rebuild is pending the state is inconsistent and the request is
// answered 409 — the rebuild's own checkpoint will cover the backlog.
func (s *server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if !s.durable {
		writeError(w, http.StatusConflict, "not_durable",
			"server has no data directory (start reccd with -data-dir)")
		return
	}
	sv := s.current()
	if err := sv.dyn.Checkpoint(); err != nil {
		if errors.Is(err, resistecc.ErrIndexStale) {
			writeError(w, http.StatusConflict, "index_stale",
				"a rebuild is pending; its checkpoint will persist the backlog")
			return
		}
		writeError(w, http.StatusInternalServerError, "checkpoint_failed", "%v", err)
		return
	}
	ps := sv.dyn.PersistStats()
	snap := sv.dyn.Snapshot()
	setGeneration(w, snap.Generation)
	s.rec.Record(trace.OpCheckpoint, snap.Generation, trace.DigestGen(snap.Generation))
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpointed":    true,
		"snapshotSeq":     ps.SnapshotSeq,
		"generation":      ps.SnapshotGeneration,
		"walRecords":      ps.WALRecords,
		"durationSeconds": ps.LastCheckpointSeconds,
	})
}

// handleRebuild implements POST /v1/rebuild: force a background rebuild
// regardless of drift (e.g. after a burst of stale-mode mutations).
func (s *server) handleRebuild(w http.ResponseWriter, _ *http.Request) {
	sv := s.current()
	// Read the snapshot before triggering: the stamped generation must be
	// deterministically pre-rebuild, both for clients correlating responses
	// and for the trace record (replay verifies against it after running the
	// rebuild to completion).
	snap := sv.dyn.Snapshot()
	sv.dyn.TriggerRebuild()
	setGeneration(w, snap.Generation)
	s.rec.Record(trace.OpRebuild, snap.Generation, trace.DigestGen(snap.Generation))
	writeJSON(w, http.StatusAccepted, map[string]any{
		"scheduled":  true,
		"generation": snap.Generation,
	})
}
