package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"resistecc"
	"resistecc/internal/dataset"
	"resistecc/internal/graph"
)

// bench is one run of one workload.
type bench struct {
	name  string
	sp    spec
	seed  int64
	secs  time.Duration
	conns int
	bin   string // reccd
	dir   string // this run's working directory, removed at the end
	in    string // the edge list reccd reads

	proxy  *graph.Graph     // the dataset proxy; its node ids are the external ids
	lcc    *resistecc.Graph // the graph reccd indexes, in reccd's internal numbering
	ext    []int64          // internal id → external id, as reccd maps them
	intern map[int64]int
	nodes  map[int64]bool
	base   []edgeKey

	rep  *report
	tr   *tracer // nil in an untraced run
	nlog int
}

func newBench(name string, sp spec, seed int64, secs time.Duration, conns int, bin, work string) (*bench, error) {
	info, err := dataset.Get(sp.graph)
	if err != nil {
		return nil, err
	}
	proxy, err := info.Proxy(1)
	if err != nil {
		return nil, err
	}
	dir, err := filepath.Abs(filepath.Join(work, "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		name: name, sp: sp, seed: seed, secs: secs, conns: conns, bin: bin, dir: dir,
		in: filepath.Join(dir, "graph.txt"), proxy: proxy, rep: &report{},
	}
	if err := proxy.SaveEdgeList(b.in); err != nil {
		return nil, err
	}
	// Load the file the way reccd does, so in-process indexes number the
	// nodes exactly as reccd's does and answer bit for bit alike.
	g, labels, err := resistecc.LoadEdgeList(b.in)
	if err != nil {
		return nil, err
	}
	lcc, mapping := g.LargestComponent()
	b.lcc = lcc
	b.ext = make([]int64, lcc.N())
	b.intern = make(map[int64]int, lcc.N())
	b.nodes = make(map[int64]bool, lcc.N())
	for v := range b.ext {
		orig := v
		if mapping != nil {
			orig = mapping[v]
		}
		id := int64(orig)
		if labels != nil {
			id = labels[orig]
		}
		b.ext[v], b.intern[id], b.nodes[id] = id, v, true
	}
	for _, e := range proxy.Edges() {
		b.base = append(b.base, canon(int64(e.U), int64(e.V)))
	}
	return b, nil
}

func (b *bench) cleanup() { _ = os.RemoveAll(b.dir) }

func (b *bench) opts() []resistecc.Option {
	return []resistecc.Option{
		resistecc.WithEpsilon(b.sp.eps), resistecc.WithDim(b.sp.dim),
		resistecc.WithSeed(buildSeed), resistecc.WithMaxHullVertices(b.sp.hullcap),
	}
}

// oracleFor builds g in process with reccd's options and returns every
// answer reccd must give for it.
func (b *bench) oracleFor(g *resistecc.Graph) (*oracle, error) {
	ix, err := resistecc.NewFastIndex(context.Background(), g, b.opts()...)
	if err != nil {
		return nil, err
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	buf := resistecc.GetBatchBuf()
	defer buf.Release()
	vals, err := ix.QueryBatch(all, buf)
	if err != nil {
		return nil, err
	}
	o := &oracle{ecc: make(map[int64]eccAnswer, len(vals))}
	for _, v := range vals {
		o.ecc[b.ext[v.Node]] = eccAnswer{Node: b.ext[v.Node], Eccentricity: v.Value, Farthest: b.ext[v.Farthest]}
	}
	sum := resistecc.Summarize(ix.Distribution())
	s := summaryAnswer{Radius: sum.Radius, Diameter: sum.Diameter, Mean: sum.Mean, Skewness: sum.Skewness,
		Center: b.externals(sum.Center)}
	if diam, pair, err := ix.ResistanceDiameter(); err == nil {
		s.HullDiameter, s.DiameterPair = diam, b.externals(pair[:])
	}
	o.summary = &s
	o.res = func(u, v int64) float64 { return ix.Resistance(b.intern[u], b.intern[v]) }
	return o, nil
}

func (b *bench) externals(vs []int) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = b.ext[v]
	}
	return out
}

// start launches reccd on dataDir and waits for its first correct answer
// (see ready). The listen port is picked free just before launch, and a
// connection of the harness may take it first; a launch that fails to bind
// is retried on a new port. A nil proc means reccd is not running; a
// non-nil one comes with err only if reccd answered wrongly or too late,
// and the caller stops it.
func (b *bench) start(dataDir string, id int64, want *oracle, got *eccAnswer) (*proc, float64, error) {
	for try := 0; ; try++ {
		b.nlog++
		logPath := filepath.Join(b.dir, fmt.Sprintf("reccd-%d.log", b.nlog))
		p, err := launch(b.bin, b.sp.args(b.in, dataDir), logPath)
		if err != nil {
			return nil, 0, err
		}
		t, err := b.ready(p, id, want, got)
		select {
		case <-p.exited:
			p.log.Close()
			if log, _ := os.ReadFile(logPath); try < 3 && strings.Contains(string(log), "address already in use") {
				continue
			}
			return nil, 0, err
		default:
			return p, t, err
		}
	}
}

// errWrongAnswer ends a readiness wait: reccd answered, and wrongly.
var errWrongAnswer = errors.New("wrong answer")

// ready waits for reccd's first correct answer for node id and returns the
// time since launch. With want nil any well-formed answer counts, and it is
// stored in got.
func (b *bench) ready(p *proc, id int64, want *oracle, got *eccAnswer) (float64, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	url := fmt.Sprintf("%s/v1/eccentricity?node=%d", p.base, id)
	probe := func() error {
		resp, err := hc.Get(url)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var as []eccAnswer
		if err := json.Unmarshal(body, &as); err != nil {
			return err
		}
		if len(as) != 1 || as[0].Node != id || !finitePos(as[0].Eccentricity) {
			return fmt.Errorf("malformed answer %s", body)
		}
		if want != nil {
			if w := want.ecc[id]; !sameBits(as[0].Eccentricity, w.Eccentricity) || as[0].Farthest != w.Farthest {
				return fmt.Errorf("%w: %+v, want %+v", errWrongAnswer, as[0], w)
			}
		}
		if got != nil {
			*got = as[0]
		}
		return nil
	}
	d, err := p.waitReady(probe, 150*time.Second)
	return d.Seconds(), err
}

// coldStarts launches reccd k times, each on a fresh data directory, and
// records in f the time each takes to its first correct answer and its
// peak RSS at that moment. All but the last are stopped; the last keeps
// serving. answers holds each start's probe answer.
func (b *bench) coldStarts(f *flow, k int, id int64, want *oracle) (p *proc, dataDir string, answers []eccAnswer, err error) {
	for i := 0; i < k; i++ {
		dataDir = filepath.Join(b.dir, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, "", nil, err
		}
		end := b.span("phase.setup", 0)
		var a eccAnswer
		var t float64
		p, t, err = b.start(dataDir, id, want, &a)
		end()
		if p == nil {
			return nil, "", nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		var kb int
		var cpu time.Duration
		if err == nil {
			kb, err = p.hwmKB()
		}
		if err == nil {
			cpu, err = p.cpu()
		}
		if err != nil {
			_ = p.stop()
			return nil, "", nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		f.setup = append(f.setup, t)
		f.setupCPU = append(f.setupCPU, cpu.Seconds())
		f.rssMB = append(f.rssMB, float64(kb)/1024)
		answers = append(answers, a)
		if i < k-1 {
			if err := p.stop(); err != nil {
				return nil, "", nil, fmt.Errorf("stopping cold start %d: %w", i+1, err)
			}
		}
	}
	if b.tr != nil {
		v, err := snapshotServer(p.base)
		if err != nil {
			_ = p.stop()
			return nil, "", nil, err
		}
		f.built, f.buildS = v.h, v.buildS
	}
	return p, dataDir, answers, nil
}

// warmStarts restarts reccd on dataDir k times (or, with k = 0, until d has
// passed), times each to its first correct answer and hands the running
// process to each, which must not stop it.
func (b *bench) warmStarts(f *flow, dataDir string, k int, d time.Duration, id int64, want *oracle, each func(*proc) error) error {
	end := time.Now().Add(d)
	for i := 0; ; i++ {
		if k > 0 && i == k || k == 0 && i > 0 && time.Now().After(end) {
			return nil
		}
		stop := b.span("phase.restart", 0)
		p, t, err := b.start(dataDir, id, want, nil)
		stop()
		if p == nil {
			return fmt.Errorf("warm start %d: %w", i+1, err)
		}
		var cpu time.Duration
		if err == nil {
			cpu, err = p.cpu()
		}
		if err == nil && each != nil {
			err = each(p)
		}
		if serr := p.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping warm start: %w", serr)
		}
		if err != nil {
			return fmt.Errorf("warm start %d: %w", i+1, err)
		}
		f.warm = append(f.warm, t)
		f.warmCPU = append(f.warmCPU, ms(cpu))
	}
}

// sweep queries every node once, in seeded random batches of 1–16 ids.
func (b *bench) sweep(r *rand.Rand) []op {
	perm := r.Perm(len(b.ext))
	var ops []op
	for len(perm) > 0 {
		k := min(1+r.Intn(maxBatch), len(perm))
		ids := make([]int64, k)
		for i, v := range perm[:k] {
			ids[i] = b.ext[v]
		}
		perm = perm[k:]
		ops = append(ops, op{kind: opEcc, ids: ids})
	}
	return ops
}

// health is the part of /v1/healthz the harness reads.
type health struct {
	Generation        uint64  `json:"generation"`
	Rebuilds          uint64  `json:"rebuilds"`
	RebuildInProgress bool    `json:"rebuildInProgress"`
	QueueDepth        int     `json:"queueDepth"`
	Drift             float64 `json:"drift"`
	HullBoundary      int     `json:"hullBoundary"`
	HullRounds        int     `json:"hullRounds"`
	SolverIters       int     `json:"solverIters"`
	Persist           struct {
		Checkpoints uint64 `json:"checkpoints"`
	} `json:"persist"`
}

func getHealth(base string) (health, error) {
	var h health
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// endpointTimes reads reccd's per-endpoint handler time sums and counts,
// and its own index build time, from /v1/metrics.
func endpointTimes(base string) (sum, count map[string]float64, buildS float64, err error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, 0, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	sum, count = map[string]float64{}, map[string]float64{}
	buildS = -1
	for _, line := range strings.Split(string(body), "\n") {
		if val, ok := strings.CutPrefix(line, "reccd_index_build_seconds "); ok {
			if buildS, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, nil, 0, fmt.Errorf("metrics: %q: %w", line, err)
			}
		}
		for prefix, m := range map[string]map[string]float64{
			`reccd_request_seconds_sum{endpoint="`:   sum,
			`reccd_request_seconds_count{endpoint="`: count,
		} {
			rest, ok := strings.CutPrefix(line, prefix)
			if !ok {
				continue
			}
			name, val, ok := strings.Cut(rest, `"} `)
			if !ok {
				return nil, nil, 0, fmt.Errorf("metrics: malformed line %q", line)
			}
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("metrics: %q: %w", line, err)
			}
			m[name] = x
		}
	}
	if buildS < 0 {
		return nil, nil, 0, errors.New("metrics: no reccd_index_build_seconds")
	}
	return sum, count, buildS, nil
}

// rebuildAndSettle forces a rebuild and waits until one has completed and
// reccd is idle with no drift: it then serves a cold build of its graph.
func rebuildAndSettle(base string) error {
	h0, err := getHealth(base)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/rebuild", "application/json", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("rebuild: status %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(120 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		h, err := getHealth(base)
		if err != nil {
			return err
		}
		if h.Rebuilds > h0.Rebuilds && !h.RebuildInProgress && h.QueueDepth == 0 && h.Drift == 0 {
			return nil
		}
	}
	return errors.New("rebuild did not settle within 120s")
}

// accuracy returns paper Eq. 8's σ — the mean of |ĉ(v) − c(v)| / c(v) over
// all nodes — and the share of nodes whose answer lies outside (1±ε)·c(v).
// exact is indexed by external id.
func accuracy(served map[int64]eccAnswer, exact []float64, eps float64) (sigma, viol float64, err error) {
	if len(served) != len(exact) {
		return 0, 0, fmt.Errorf("accuracy: %d served answers for %d nodes", len(served), len(exact))
	}
	bad := 0
	for id, c := range exact {
		a, ok := served[int64(id)]
		if !ok || !(c > 0) {
			return 0, 0, fmt.Errorf("accuracy: node %d: no answer or exact value %v", id, c)
		}
		rel := math.Abs(a.Eccentricity-c) / c
		sigma += rel
		if rel > eps {
			bad++
		}
	}
	n := float64(len(exact))
	return sigma / n, float64(bad) / n, nil
}

// keeper collects answers a client saw, for workloads whose reference is
// reccd's own first build.
type keeper struct {
	mu  sync.Mutex
	ecc map[int64]eccAnswer
}
