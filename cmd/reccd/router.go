package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"resistecc/internal/obs"
	"resistecc/internal/repl"
	"resistecc/internal/trace"
)

// routerServer is the thin routing tier: it holds no index, only a pool of
// backends. Reads consistent-hash onto healthy replicas (honoring the
// caller's X-Min-Generation read-your-writes floor, retrying the next
// candidate when a replica dies mid-request, falling back to the writer);
// mutations proxy straight to the writer, single-attempt.
type routerServer struct {
	// All five fields are set in newRouterServer before the listener
	// exists and never reassigned; handlers share them read-only. Mutable
	// routing state lives inside the pool, which synchronizes itself.
	pool *repl.Pool
	cfg  serverConfig
	reg  *obs.Registry

	// rec captures proxied operations (-trace-out) through a response tee;
	// nil when recording is off. The recorder serializes its own writes.
	rec *trace.Recorder

	// stop ends the pool's health loop.
	stop func()
}

func newRouterServer(ctx context.Context, cfg Config) (*routerServer, error) {
	client := &http.Client{Timeout: 2 * time.Minute}
	pool := repl.NewPool(cfg.Upstream, cfg.Replicas, client, cfg.PollInterval)
	rs := &routerServer{pool: pool, cfg: cfg.Server, reg: obs.NewRegistry("reccd")}
	if rs.cfg.TraceOut != "" {
		rec, err := trace.NewRecorder(rs.cfg.TraceOut, trace.RecorderOptions{SyncEvery: rs.cfg.TraceSync})
		if err != nil {
			return nil, fmt.Errorf("opening trace recorder: %w", err)
		}
		rs.rec = rec
		publishTraceMetrics(rs.reg, rec)
	}
	rs.publishRouterMetrics()
	rs.stop = pool.Start(ctx)
	return rs, nil
}

func (rs *routerServer) close() {
	rs.stop()
	if err := rs.rec.Close(); err != nil {
		log.Printf("reccd: closing trace recorder: %v", err)
	}
}

func (rs *routerServer) publishRouterMetrics() {
	rs.reg.SetCounterFunc("router_proxied_total", func() float64 { return float64(rs.pool.Stats().Proxied) })
	rs.reg.SetCounterFunc("router_retries_total", func() float64 { return float64(rs.pool.Stats().Retries) })
	rs.reg.SetCounterFunc("router_writer_fallbacks_total", func() float64 { return float64(rs.pool.Stats().WriterFallbacks) })
	rs.reg.SetCounterFunc("router_no_backend_total", func() float64 { return float64(rs.pool.Stats().NoBackend) })
	healthGauge := func(b *repl.Backend) func() float64 {
		return func() float64 {
			if b.Healthy() {
				return 1
			}
			return 0
		}
	}
	// Per-backend series are label values on two fixed names, not
	// per-backend names: metrichygiene forbids dynamically-constructed
	// metric names, and labels are what Prometheus dimensions are for.
	for i, b := range rs.pool.Replicas() {
		b := b
		rs.reg.SetLabeledGaugeFunc("router_backend_healthy", "backend", strconv.Itoa(i), healthGauge(b))
		rs.reg.SetLabeledGaugeFunc("router_backend_generation", "backend", strconv.Itoa(i), func() float64 { return float64(b.Generation()) })
	}
	w := rs.pool.Writer()
	rs.reg.SetGaugeFunc("router_writer_healthy", healthGauge(w))
	rs.reg.SetGaugeFunc("router_writer_generation", func() float64 { return float64(w.Generation()) })
}

// handleHealth reports the router's own state: per-backend health and
// generation plus routing counters. A router with zero healthy backends is
// itself unhealthy (503) so load balancers eject it.
func (rs *routerServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	type backendView struct {
		URL        string `json:"url"`
		Healthy    bool   `json:"healthy"`
		Generation uint64 `json:"generation"`
	}
	type routingView struct {
		Proxied         uint64 `json:"proxied"`
		Retries         uint64 `json:"retries"`
		WriterFallbacks uint64 `json:"writerFallbacks"`
		NoBackend       uint64 `json:"noBackend"`
	}
	// The degraded 503 must carry the {"error":{code,message}} envelope like
	// every other non-2xx, so the health view embeds an optional envelope
	// field next to its diagnostics.
	type healthView struct {
		Role     string         `json:"role"`
		Status   string         `json:"status"`
		Writer   backendView    `json:"writer"`
		Replicas []backendView  `json:"replicas"`
		Routing  routingView    `json:"routing"`
		Error    *obs.ErrorBody `json:"error,omitempty"`
	}
	wr := rs.pool.Writer()
	body := healthView{
		Role:   roleRouter,
		Writer: backendView{URL: wr.URL, Healthy: wr.Healthy(), Generation: wr.Generation()},
	}
	healthy := 0
	if wr.Healthy() {
		healthy++
	}
	for _, b := range rs.pool.Replicas() {
		if b.Healthy() {
			healthy++
		}
		body.Replicas = append(body.Replicas, backendView{URL: b.URL, Healthy: b.Healthy(), Generation: b.Generation()})
	}
	st := rs.pool.Stats()
	body.Routing = routingView{
		Proxied:         st.Proxied,
		Retries:         st.Retries,
		WriterFallbacks: st.WriterFallbacks,
		NoBackend:       st.NoBackend,
	}
	if healthy == 0 {
		body.Status = "degraded"
		body.Error = &obs.ErrorBody{Code: "degraded", Message: "no healthy backends"}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body.Status = "ok"
	writeJSON(w, http.StatusOK, body)
}

// handler assembles the router's stack: reads fan out over the pool,
// mutations go to the writer, health and metrics are answered locally.
func (rs *routerServer) handler(logger *log.Logger) http.Handler {
	mux := http.NewServeMux()
	proxyRead := rs.reg.InstrumentFunc("proxy_read", rs.pool.ProxyQuery)
	mux.Handle("GET /v1/eccentricity", traceProxy(rs.rec, proxyRead, recordProxiedQuery))
	mux.Handle("GET /v1/resistance", proxyRead)
	mux.Handle("GET /v1/summary", proxyRead)
	proxyWrite := rs.reg.InstrumentFunc("proxy_write", rs.pool.ProxyWriter)
	mux.Handle("POST /v1/edges", traceProxy(rs.rec, proxyWrite, recordProxiedMutation))
	mux.Handle("DELETE /v1/edges", traceProxy(rs.rec, proxyWrite, recordProxiedMutation))
	mux.Handle("POST /v1/rebuild", traceProxy(rs.rec, proxyWrite, recordProxiedControl(trace.OpRebuild)))
	mux.Handle("POST /v1/checkpoint", traceProxy(rs.rec, proxyWrite, recordProxiedControl(trace.OpCheckpoint)))
	mux.Handle("GET /v1/healthz", rs.reg.InstrumentFunc("healthz", rs.handleHealth))
	mux.Handle("GET /v1/metrics", rs.reg.Instrument("metrics", rs.reg))
	if rs.cfg.Pprof {
		mountPprof(mux)
	}
	var h http.Handler = withEnvelope(mux)
	h = rs.reg.LimitInFlight(rs.cfg.MaxInFlight, h, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "overloaded", "router overloaded; retry")
	}))
	return obs.AccessLog(logger, h)
}
