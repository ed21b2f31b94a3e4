package repl

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"resistecc/internal/par"
)

// vnodesPerBackend spreads each backend over the hash ring so load stays
// even when one replica drops out.
const vnodesPerBackend = 64

// Backend is one routable process: the writer or a read replica. Health
// and generation are written by the pool's health loop and read lock-free
// on the routing path.
type Backend struct {
	// URL is the backend's base URL.
	URL string
	// IsWriter marks the writer; it serves as the fallback of last resort
	// and the only mutation target.
	IsWriter bool

	healthy atomic.Bool
	gen     atomic.Uint64
}

// Healthy reports the last health-check outcome.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// Generation reports the backend's index generation at the last check.
func (b *Backend) Generation() uint64 { return b.gen.Load() }

// PoolStats are cumulative routing counters for metrics.
type PoolStats struct {
	// Retries counts requests re-sent after a backend failed mid-flight.
	Retries uint64
	// WriterFallbacks counts reads that landed on the writer because no
	// healthy replica satisfied the caller's generation floor.
	WriterFallbacks uint64
	// Proxied counts successfully answered proxied requests.
	Proxied uint64
	// NoBackend counts requests that exhausted every candidate.
	NoBackend uint64
}

// ringEntry is one virtual node on the consistent-hash ring.
type ringEntry struct {
	hash    uint64
	backend *Backend
}

// Pool routes requests over a writer plus read replicas: consistent
// hashing picks a stable replica per key, a health loop ejects dead or
// lagging backends, and reads carrying an X-Min-Generation floor skip
// replicas that have not caught up to it (read-your-writes).
type Pool struct {
	writer   *Backend      // set in NewPool, immutable; per-Backend state is atomic
	replicas []*Backend    // set in NewPool, immutable (the slice; Backends self-synchronize)
	ring     []ringEntry   // static; health is filtered at lookup time
	client   *http.Client  // set in NewPool, immutable
	interval time.Duration // set in NewPool, immutable

	// Routing counters: bumped atomically on the request path, snapshotted
	// by Stats. No lock orders them against each other — each is
	// independently monotonic.
	retries         atomic.Uint64
	writerFallbacks atomic.Uint64
	proxied         atomic.Uint64
	noBackend       atomic.Uint64
}

// NewPool builds a pool for one writer URL and its replica URLs. client
// nil means a 30s-timeout client; interval 0 means 1s health polls.
func NewPool(writer string, replicas []string, client *http.Client, interval time.Duration) *Pool {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if interval <= 0 {
		interval = time.Second
	}
	p := &Pool{
		writer:   &Backend{URL: writer, IsWriter: true},
		client:   client,
		interval: interval,
	}
	for _, u := range replicas {
		b := &Backend{URL: u}
		p.replicas = append(p.replicas, b)
		for i := 0; i < vnodesPerBackend; i++ {
			p.ring = append(p.ring, ringEntry{hash: hashKey(fmt.Sprintf("%s#%d", u, i)), backend: b})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool { return p.ring[i].hash < p.ring[j].hash })
	return p
}

// Writer returns the writer backend.
func (p *Pool) Writer() *Backend { return p.writer }

// Replicas returns the replica backends in registration order.
func (p *Pool) Replicas() []*Backend { return p.replicas }

// Stats returns a point-in-time view of the routing counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Retries:         p.retries.Load(),
		WriterFallbacks: p.writerFallbacks.Load(),
		Proxied:         p.proxied.Load(),
		NoBackend:       p.noBackend.Load(),
	}
}

// Start runs one health sweep, so routing decisions are informed from the
// first request, then sweeps every interval until ctx ends or stop is
// called. stop cancels the sweep in flight and waits for it.
func (p *Pool) Start(ctx context.Context) (stop func()) {
	p.CheckOnce(ctx)
	return par.Every(ctx, p.interval, p.CheckOnce)
}

// CheckOnce health-checks every backend concurrently: a 200 from
// /v1/healthz marks it healthy and records its X-Index-Generation.
func (p *Pool) CheckOnce(ctx context.Context) {
	all := append([]*Backend{p.writer}, p.replicas...)
	par.For(len(all), len(all), func(_, k int) { p.checkBackend(ctx, all[k]) })
}

func (p *Pool) checkBackend(ctx context.Context, b *Backend) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.URL+"/v1/healthz", nil)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		b.healthy.Store(false)
		return
	}
	if gen, err := strconv.ParseUint(resp.Header.Get("X-Index-Generation"), 10, 64); err == nil {
		b.gen.Store(gen)
	}
	b.healthy.Store(true)
}

// hashKey is 64-bit FNV-1a.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Candidates returns the backends to try for a read, in order: healthy
// replicas satisfying minGen walked clockwise from the key's ring
// position (so the same key consistently lands on the same replica), then
// the writer — which by definition satisfies every generation floor.
func (p *Pool) Candidates(key string, minGen uint64) []*Backend {
	out := make([]*Backend, 0, len(p.replicas)+1)
	if len(p.ring) > 0 {
		h := hashKey(key)
		start := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
		seen := make(map[*Backend]bool, len(p.replicas))
		for i := 0; i < len(p.ring) && len(seen) < len(p.replicas); i++ {
			b := p.ring[(start+i)%len(p.ring)].backend
			if seen[b] {
				continue
			}
			seen[b] = true
			if b.Healthy() && b.Generation() >= minGen {
				out = append(out, b)
			}
		}
	}
	out = append(out, p.writer)
	return out
}

// ProxyQuery forwards a read to the first candidate that answers, retrying
// the next one on connection failure or 5xx — a replica death mid-request
// costs the client nothing. The routing key is the request path + query,
// so identical queries hit the same replica's caches. The caller's
// X-Min-Generation floor (default 0) implements read-your-writes: pass the
// generation a mutation response reported and no stale replica will answer.
func (p *Pool) ProxyQuery(w http.ResponseWriter, r *http.Request) {
	minGen := uint64(0)
	if raw := r.Header.Get("X-Min-Generation"); raw != "" {
		g, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_parameter", "malformed X-Min-Generation %q", raw)
			return
		}
		minGen = g
	}
	candidates := p.Candidates(r.URL.RequestURI(), minGen)
	for i, b := range candidates {
		if i > 0 {
			p.retries.Add(1)
		}
		if b.IsWriter && len(p.replicas) > 0 {
			p.writerFallbacks.Add(1)
		}
		if p.forward(w, r, b) {
			p.proxied.Add(1)
			return
		}
	}
	p.noBackend.Add(1)
	writeErr(w, http.StatusServiceUnavailable, "no_backend", "no backend could answer")
}

// ProxyWriter forwards a request to the writer, single-attempt — mutations
// are not idempotent, so the router never retries them.
func (p *Pool) ProxyWriter(w http.ResponseWriter, r *http.Request) {
	if p.forward(w, r, p.writer) {
		p.proxied.Add(1)
		return
	}
	p.noBackend.Add(1)
	writeErr(w, http.StatusServiceUnavailable, "no_backend", "writer unreachable")
}

// forward proxies one request to b. It reports false — leaving the
// response untouched — when the backend cannot be reached or answered a
// 5xx, so the caller can try the next candidate.
func (p *Pool) forward(w http.ResponseWriter, r *http.Request, b *Backend) bool {
	var body io.Reader
	if r.Body != nil {
		body = r.Body
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL+r.URL.RequestURI(), body)
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Served-By", b.URL)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
