// Command reccd serves resistance-eccentricity queries over HTTP. It runs as
// one of three roles forming a replicated serving tier:
//
//   - writer (default): loads an edge-list network, reduces it to its largest
//     connected component, builds a FASTQUERY index, and keeps it live across
//     online edge mutations — a generation-numbered DynamicIndex absorbs
//     every add and every removal that keeps the graph connected with an
//     exact incremental sketch update, and rebuilds only on POST /v1/rebuild.
//     With -data-dir the index is durable (checksummed snapshots + a
//     mutation WAL, warm restarts) and the writer additionally serves the
//     replication feed under /v1/repl/.
//
//   - replica (-role=replica -upstream=URL): holds no input file; it restores
//     the writer's shipped snapshot, tails its WAL, and serves the same read
//     surface with bit-identical answers at the same sequence. Mutations are
//     refused with 403 "not_writer".
//
//   - router (-role=router -upstream=URL -replicas=URL,URL): holds no index;
//     it consistent-hashes reads over healthy replicas (honoring the caller's
//     X-Min-Generation read-your-writes floor, retrying on replica failure,
//     falling back to the writer) and proxies mutations to the writer.
//
//     reccd -in graph.txt -listen :8080 -eps 0.2 -dim 128 -data-dir /var/lib/reccd
//     reccd -role=replica -upstream http://writer:8080 -listen :8081
//     reccd -role=router -upstream http://writer:8080 -replicas http://r1:8081,http://r2:8082
//
// Node ids in requests and responses are always the original ids from the
// edge-list file. Ids that fall outside the largest connected component
// (the index covers only the LCC, the paper's standard preprocessing) are
// answered with 404.
//
// Endpoints (all under /v1/; unversioned paths answer 404):
//
//	GET    /v1/healthz                  → {"status":"ok", ...index + lifecycle stats}
//	GET    /v1/eccentricity?node=1,2,3  → [{"node":…,"eccentricity":…,"farthest":…}, …]
//	                                      (always an array, also for a single id)
//	GET    /v1/resistance?u=3&v=9       → {"u":3,"v":9,"resistance":…}
//	GET    /v1/summary                  → {"radius":…,"diameter":…,"center":[…]}
//	GET    /v1/metrics                  → Prometheus text exposition
//	POST   /v1/edges  {"u":3,"v":9}     → add an edge between existing nodes
//	DELETE /v1/edges?u=3&v=9            → remove an edge (refused if it would
//	                                      disconnect the graph)
//	POST   /v1/rebuild                  → queue an index rebuild behind pending mutations
//	POST   /v1/checkpoint               → persist a snapshot behind pending mutations (-data-dir only)
//	GET    /v1/repl/status              → replication state of this process
//	GET    /v1/repl/{snapshot,wal,ids}  → replication feed (durable writer only)
//	GET    /debug/pprof/...             → net/http/pprof (only with -pprof)
//
// Every non-2xx response is a structured envelope
// {"error":{"code":…,"message":…}} with a stable machine-readable code.
//
// See README.md, "Operating reccd", "Mutating the graph" and "Running a
// replica set", for flags, timeouts, shedding and the consistency model.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"resistecc"
	"resistecc/internal/graph"
)

func main() {
	var cfg Config
	cfg.Server = defaultConfig()
	flag.StringVar(&cfg.Role, "role", roleWriter, "process role: writer, replica or router")
	flag.StringVar(&cfg.In, "in", "", "input edge-list file (writer only; required there)")
	flag.StringVar(&cfg.Listen, "listen", ":8080", "listen address")
	flag.Float64Var(&cfg.Eps, "eps", 0.2, "approximation parameter (writer only)")
	flag.IntVar(&cfg.Dim, "dim", 128, "sketch dimension override (writer only)")
	flag.IntVar(&cfg.HullCap, "hullcap", 64, "max hull vertices (writer only)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "sketch seed (writer only)")
	flag.StringVar(&cfg.Upstream, "upstream", "",
		"writer base URL, e.g. http://writer:8080 (replica and router)")
	replicasFlag := flag.String("replicas", "",
		"comma-separated replica base URLs to route reads over (router only)")
	flag.DurationVar(&cfg.PollInterval, "poll-interval", 0,
		"replica WAL-tail poll period / router health-check period (0 = role default)")

	flag.IntVar(&cfg.Server.MaxBatch, "max-batch", cfg.Server.MaxBatch,
		"max node ids per /eccentricity request, 0 = unlimited (oversize → 413)")
	flag.IntVar(&cfg.Server.MaxInFlight, "max-inflight", cfg.Server.MaxInFlight,
		"max concurrently executing requests, 0 = unlimited (excess → 503)")
	flag.DurationVar(&cfg.Server.ReadTimeout, "read-timeout", cfg.Server.ReadTimeout, "HTTP read timeout")
	flag.DurationVar(&cfg.Server.WriteTimeout, "write-timeout", cfg.Server.WriteTimeout, "HTTP write timeout")
	flag.DurationVar(&cfg.Server.IdleTimeout, "idle-timeout", cfg.Server.IdleTimeout, "HTTP idle timeout")
	flag.DurationVar(&cfg.Server.ShutdownGrace, "shutdown-grace", cfg.Server.ShutdownGrace,
		"max wait for in-flight requests on SIGINT/SIGTERM")
	flag.BoolVar(&cfg.Server.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	// Sketch updates are exact, so no drift accumulates, no removal forces a
	// rebuild, and the queue has one capacity; the flag names stay so
	// existing command lines that spell them out keep starting.
	flag.Float64("drift-threshold", 0, "retired: accepted and ignored; sketch updates are exact and accumulate no drift")
	flag.Int("max-deletions", 0, "retired: accepted and ignored; every removal that keeps the graph connected is absorbed exactly")
	flag.Int("mutation-queue", 0, "retired: accepted and ignored; the mutation queue holds 64 ops")
	flag.StringVar(&cfg.Server.DataDir, "data-dir", "",
		"durable index directory: snapshot + mutation WAL, warm restarts, replication feed (writer only)")
	flag.DurationVar(&cfg.Server.CheckpointInterval, "checkpoint-interval", 0,
		"time-based checkpoint period, the bound on WAL growth under mutations (0 = off; needs -data-dir)")
	// The unversioned aliases are gone; the flag name stays so existing
	// command lines that spell out -legacy-routes=false keep starting.
	flag.BoolFunc("legacy-routes", "retired: only false is accepted; the API is served under /v1/ only",
		func(v string) error {
			if on, err := strconv.ParseBool(v); err != nil || on {
				return errors.New("the unversioned routes are retired; use the /v1/ paths")
			}
			return nil
		})
	flag.StringVar(&cfg.Server.TraceOut, "trace-out", "",
		"record every accepted API operation into this trace file (replay with recc replay)")
	flag.IntVar(&cfg.Server.TraceSync, "trace-sync", 256,
		"fsync the trace after every Nth record (0 = buffer until shutdown)")
	flag.Parse()
	cfg.Replicas = splitList(*replicasFlag)

	if err := cfg.Validate(); err != nil {
		log.Fatalf("reccd: %v", err)
	}

	// The root context is minted once, here: it carries process shutdown
	// (SIGINT/SIGTERM) into index builds, sync loops and serving alike.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logger := log.Default()
	var handler http.Handler
	var cleanup func()
	switch cfg.Role {
	case roleWriter:
		srv := startWriter(ctx, cfg)
		handler, cleanup = srv.handler(logger), srv.close
	case roleReplica:
		srv, err := newReplicaServer(ctx, cfg)
		if err != nil {
			log.Fatalf("reccd: starting replica: %v", err)
		}
		log.Printf("reccd: replica synced against %s (generation %d, seq %d) in %s; listening on %s",
			cfg.Upstream, srv.current().dyn.Snapshot().Generation, srv.current().dyn.Seq(),
			srv.buildTime, cfg.Listen)
		handler, cleanup = srv.handler(logger), srv.close
	case roleRouter:
		rs, err := newRouterServer(ctx, cfg)
		if err != nil {
			log.Fatalf("reccd: starting router: %v", err)
		}
		log.Printf("reccd: routing over %d replicas (writer %s); listening on %s",
			len(cfg.Replicas), cfg.Upstream, cfg.Listen)
		handler, cleanup = rs.handler(logger), rs.close
	}
	defer cleanup()

	if err := run(ctx, stop, cfg.Listen, handler, cfg.Server, logger); err != nil {
		log.Fatalf("reccd: %v", err)
	}
}

// startWriter loads the input network and builds the serving index; any
// failure is fatal — a writer that cannot build has nothing to serve.
func startWriter(ctx context.Context, cfg Config) *server {
	g, labels, err := resistecc.LoadEdgeList(cfg.In)
	if err != nil {
		log.Fatalf("reccd: loading %s: %v", cfg.In, err)
	}
	inputNodes, inputEdges := g.N(), g.M()
	// Keep the LCC relabelling: queries arrive with original edge-list ids
	// and must be translated, not trusted as internal indices.
	lcc, mapping := g.LargestComponent()
	ids := graph.ComposeIDs(lcc.N(), labels, mapping)
	log.Printf("reccd: loaded %s: %d nodes, %d edges; LCC %d nodes, %d edges",
		cfg.In, inputNodes, inputEdges, lcc.N(), lcc.M())

	srv, err := newServer(ctx, lcc, ids, inputNodes, inputEdges, []resistecc.Option{
		resistecc.WithEpsilon(cfg.Eps), resistecc.WithDim(cfg.Dim),
		resistecc.WithSeed(cfg.Seed), resistecc.WithMaxHullVertices(cfg.HullCap),
	}, cfg.Server)
	if err != nil {
		log.Fatalf("reccd: building index: %v", err)
	}
	if cfg.Server.DataDir != "" {
		if srv.recovery.Warm {
			log.Printf("reccd: warm start from %s: generation %d, %d WAL mutations replayed",
				cfg.Server.DataDir, srv.recovery.Generation, srv.recovery.ReplayedMutations)
		} else {
			log.Printf("reccd: cold start (%s); persisting to %s", srv.recovery.Reason, cfg.Server.DataDir)
		}
	}
	st := srv.idx().BuildStats()
	log.Printf("reccd: index ready (d=%d, l=%d, cg-iters=%d, max-residual=%.2e) in %s; listening on %s",
		st.SketchDim, st.HullSize, st.SolverTotalIters, st.SolverMaxResidual,
		srv.buildTime, cfg.Listen)
	return srv
}

// run serves until ctx is cancelled (SIGINT/SIGTERM), then shuts down
// gracefully: the listener closes immediately while in-flight requests get
// ShutdownGrace to drain. stop restores default signal handling so a second
// signal kills hard.
func run(ctx context.Context, stop context.CancelFunc, addr string, h http.Handler,
	cfg serverConfig, logger *log.Logger) error {
	hs := httpServer(addr, h, cfg)

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	logger.Printf("reccd: shutdown signal received; draining for up to %s", cfg.ShutdownGrace)
	//recclint:ignore ctxflow the parent ctx is already cancelled here; the drain deadline needs a fresh root
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.ShutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("reccd: drained; bye")
	return nil
}

// mountPprof wires the net/http/pprof handlers explicitly (the package's
// init-time DefaultServeMux registration doesn't reach our mux).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
