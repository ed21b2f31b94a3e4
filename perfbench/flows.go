package main

import (
	"fmt"
	"math/rand"
	"time"

	"resistecc/internal/ecc"
)

// flow is what one pass over a workload measured.
type flow struct {
	setup   []float64 // s, cold start to first correct answer
	rssMB   []float64 // VmHWM of each cold start at its first answer
	warm    []float64 // s, warm restart to first correct answer
	warmCPU []float64 // ms of reccd CPU to each warm restart's first answer
	reads   []float64 // ms, read latency from due time, in due order
	muts    []float64 // ms, mutation latency from due time
	late    []float64 // ms, how late the open loop sent each op
	tput    []float64 // reads completed per second in each closed-loop window
	pre     []sample  // warm-up samples, before the measured phases
	main    []sample  // every sample of the measured phases
	sigma   float64
	viol    float64

	setupCPU  []float64     // s of reccd CPU to each cold start's first answer
	readCPU   time.Duration // reccd CPU over the measured closed-loop phases
	readsDone int           // reads those phases completed
	openCPU   time.Duration // reccd CPU over the open-loop phases
	openOps   int           // ops those phases completed
	steal     float64       // share of the machine's CPU the host took meanwhile
	steal0    int64
	total0    int64

	// Traced passes read reccd's build statistics once its cold start
	// answers, and what its own counters saw over each measured phase;
	// mixed records the edge mutations reccd acknowledged.
	built  health
	buildS float64 // reccd's own index build time (index_build_seconds)
	srv    serverDelta
	acked  []op
}

// serverDelta sums what reccd's counters saw over the measured phases of a
// pass. Each phase is read before and after on the process that served it,
// so a workload that restarts reccd between phases sums per process.
type serverDelta struct {
	rebuilds, generations, checkpoints uint64
	sum, cnt                           map[string]float64 // handler seconds and requests, by endpoint
}

// serverView is one reading of reccd's /v1/healthz and /v1/metrics.
type serverView struct {
	h        health
	sum, cnt map[string]float64
	buildS   float64
}

// since adds what changed between two readings of one reccd process.
func (d *serverDelta) since(v0, v1 serverView) error {
	h0, h1 := v0.h, v1.h
	if h1.Rebuilds < h0.Rebuilds || h1.Generation < h0.Generation || h1.Persist.Checkpoints < h0.Persist.Checkpoints {
		return fmt.Errorf("reccd's counters went backwards: %+v, then %+v", h0, h1)
	}
	d.rebuilds += h1.Rebuilds - h0.Rebuilds
	d.generations += h1.Generation - h0.Generation
	d.checkpoints += h1.Persist.Checkpoints - h0.Persist.Checkpoints
	if d.sum == nil {
		d.sum, d.cnt = map[string]float64{}, map[string]float64{}
	}
	for ep, n := range v1.cnt {
		d.cnt[ep] += n - v0.cnt[ep]
		d.sum[ep] += v1.sum[ep] - v0.sum[ep]
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts samples into the run's attempted and failed ops.
func (b *bench) tally(ss []sample) {
	for _, s := range ss {
		b.rep.ops[s.kind]++
		if !s.ok {
			b.rep.fails[s.kind]++
			b.rep.note(s.err)
		}
	}
}

// open files open-loop samples into f.
func (f *flow) open(ss []sample) {
	f.main = append(f.main, ss...)
	for _, s := range ss {
		f.late = append(f.late, ms(s.late))
		if s.kind.isRead() {
			f.reads = append(f.reads, ms(s.lat))
		} else {
			f.muts = append(f.muts, ms(s.lat))
		}
	}
}

// closed files a closed-loop phase of wall time d into f: its throughput
// per window of the given width, or over the whole phase if it is shorter.
func (f *flow) closed(ss []sample, d time.Duration) {
	f.main = append(f.main, ss...)
	if len(ss) == 0 {
		return
	}
	start := ss[0].sent
	for _, s := range ss {
		if s.sent.Before(start) {
			start = s.sent
		}
	}
	n := int(d / window)
	if n == 0 {
		ok := 0
		for _, s := range ss {
			if s.ok {
				ok++
			}
		}
		f.tput = append(f.tput, float64(ok)/d.Seconds())
		return
	}
	counts := make([]int, n)
	for _, s := range ss {
		if i := int(s.done.Sub(start) / window); s.ok && i < n {
			counts[i]++
		}
	}
	for _, c := range counts {
		f.tput = append(f.tput, float64(c)/window.Seconds())
	}
}

// measured runs a measured closed-loop read phase against p and files it
// into f, with the CPU time reccd spent on it.
func (b *bench) measured(f *flow, p *proc, c *client, next func() *op) error {
	c0, err := p.cpu()
	if err != nil {
		return err
	}
	ss, d := runClosed(c, b.conns, next)
	c1, err := p.cpu()
	if err != nil {
		return err
	}
	b.tally(ss)
	f.closed(ss, d)
	f.readCPU += c1 - c0
	for _, s := range ss {
		if s.ok {
			f.readsDone++
		}
	}
	return nil
}

// openOn sends ops open loop to p and files them into f, with the CPU time
// reccd spent meanwhile.
func (b *bench) openOn(f *flow, p *proc, c *client, ops []op) ([]sample, error) {
	c0, err := p.cpu()
	if err != nil {
		return nil, err
	}
	ss := runOpen(c, ops, b.conns)
	c1, err := p.cpu()
	if err != nil {
		return nil, err
	}
	b.tally(ss)
	f.open(ss)
	f.openCPU += c1 - c0
	for _, s := range ss {
		if s.ok {
			f.openOps++
		}
	}
	return ss, nil
}

// stealFrom records the host's stolen CPU ticks at the start of the
// measured phases; stealTo closes the interval.
func (f *flow) stealFrom() error {
	var err error
	f.steal0, f.total0, err = hostSteal()
	return err
}

func (f *flow) stealTo() error {
	s, t, err := hostSteal()
	if t > f.total0 {
		f.steal = float64(s-f.steal0) / float64(t-f.total0)
	}
	return err
}

// snapshotServer reads reccd's health and metrics.
func snapshotServer(base string) (serverView, error) {
	var v serverView
	var err error
	if v.h, err = getHealth(base); err != nil {
		return v, err
	}
	v.sum, v.cnt, v.buildS, err = endpointTimes(base)
	return v, err
}

// watch runs a measured phase on the reccd at base; in a traced pass it
// adds to f what reccd's counters saw meanwhile.
func (b *bench) watch(f *flow, base string, phase func() error) error {
	if b.tr == nil {
		return phase()
	}
	v0, err := snapshotServer(base)
	if err != nil {
		return err
	}
	if err := phase(); err != nil {
		return err
	}
	v1, err := snapshotServer(base)
	if err != nil {
		return err
	}
	return f.srv.since(v0, v1)
}

// runBuild: cold starts with a certified hull, then warm restarts from the
// data dir for the measured seconds, querying all n nodes after each. The
// answers after every restart must equal the cold build's bit for bit, and
// the cold builds must agree with each other.
func (b *bench) runBuild(k int) (*flow, error) {
	f := &flow{}
	r := rand.New(rand.NewSource(b.seed))
	probe := b.ext[r.Intn(len(b.ext))]
	p, dataDir, answers, err := b.coldStarts(f, k, probe, nil)
	if err != nil {
		return nil, err
	}
	cold := &keeper{ecc: map[int64]eccAnswer{}}
	c := newClient(p.base, b.conns, b.nodes, nil)
	c.keep = cold
	ss, _ := runClosed(c, b.conns, listOps(b.sweep(r)))
	c.close()
	b.tally(ss)
	if err := p.stop(); err != nil {
		return nil, err
	}
	if len(cold.ecc) != len(b.ext) {
		return nil, fmt.Errorf("cold sweep answered %d of %d nodes", len(cold.ecc), len(b.ext))
	}
	want := &oracle{ecc: cold.ecc}
	for i, a := range answers {
		if w := cold.ecc[probe]; !sameBits(a.Eccentricity, w.Eccentricity) || a.Farthest != w.Farthest {
			b.rep.fail("cold start %d answered %+v for node %d, the last cold start %+v", i+1, a, probe, w)
		}
	}

	if err := f.stealFrom(); err != nil {
		return nil, err
	}
	phase, end := b.tr.begin("phase.restarts", 0)
	err = b.warmStarts(f, dataDir, 0, b.secs, probe, want, func(p *proc) error {
		c := newClient(p.base, b.conns, b.nodes, want)
		defer c.close()
		c.tr, c.phase = b.tr, phase
		n := len(f.main)
		if err := b.watch(f, p.base, func() error { return b.measured(f, p, c, listOps(b.sweep(r))) }); err != nil {
			return err
		}
		for _, s := range f.main[n:] {
			f.reads = append(f.reads, ms(s.lat))
		}
		return nil
	})
	end()
	if err != nil {
		return nil, err
	}
	if err := f.stealTo(); err != nil {
		return nil, err
	}
	ex, err := ecc.NewExact(b.proxy)
	if err != nil {
		return nil, err
	}
	f.sigma, f.viol, err = accuracy(cold.ecc, ex.Distribution(), b.sp.eps)
	return f, err
}

// runServe: cold starts, a warm-up that fills the summary cache, then
// cycles of open-loop reads at a fixed rate and closed-loop reads, then
// warm restarts. Every answer must equal the in-process index's bit for
// bit. Alternating the loops spreads each over the whole run, so a burst of
// load from outside the benchmark lands on few windows of each.
func (b *bench) runServe(k int, want *oracle, exact []float64) (*flow, error) {
	f := &flow{}
	r := rand.New(rand.NewSource(b.seed))
	probe := b.ext[r.Intn(len(b.ext))]
	p, dataDir, _, err := b.coldStarts(f, k, probe, want)
	if err != nil {
		return nil, err
	}
	if err := b.serveReads(f, p, want); err != nil {
		_ = p.stop()
		return nil, err
	}
	if err := b.finish(f, p, want, exact, r); err != nil {
		return nil, err
	}
	return f, b.warmStarts(f, dataDir, restarts, 0, probe, want, nil)
}

func (b *bench) serveReads(f *flow, p *proc, want *oracle) error {
	c := newClient(p.base, b.conns, b.nodes, want)
	defer c.close()
	mix := mixSpec{maxBatch: maxBatch}
	warmup := []op{{kind: opSummary}}
	wg := newGen(b.seed+1<<32, b.ext, b.base, mix)
	for i := 0; i < 200; i++ {
		warmup = append(warmup, wg.next(warmup))
	}
	ss, _ := runClosed(c, b.conns, listOps(warmup))
	b.tally(ss)
	f.pre = ss

	c.tr = b.tr
	openD := time.Duration(b.sp.open * float64(b.secs) / cycles)
	closedD := time.Duration((1 - b.sp.open) * float64(b.secs) / cycles)
	// Separate streams: how many ops the closed loop draws depends on speed,
	// and must not shift what the open loop sends.
	g, gc := newGen(b.seed, b.ext, b.base, mix), newGen(b.seed+2<<32, b.ext, b.base, mix)
	return b.watch(f, p.base, func() error {
		if err := f.stealFrom(); err != nil {
			return err
		}
		for i := 0; i < cycles; i++ {
			ops := g.openSchedule(b.sp.rate, openD)
			var end func()
			c.phase, end = b.tr.begin("phase.open", 0)
			_, err := b.openOn(f, p, c, ops)
			end()
			if err != nil {
				return err
			}
			c.phase, end = b.tr.begin("phase.closed", 0)
			err = b.measured(f, p, c, timedOps(gc, closedD))
			end()
			if err != nil {
				return err
			}
		}
		return f.stealTo()
	})
}

// finish sweeps all n nodes against want, measures accuracy against exact
// and stops reccd.
func (b *bench) finish(f *flow, p *proc, want *oracle, exact []float64, r *rand.Rand) error {
	c := newClient(p.base, b.conns, b.nodes, want)
	seen := &keeper{ecc: map[int64]eccAnswer{}}
	c.keep = seen
	ss, _ := runClosed(c, b.conns, listOps(b.sweep(r)))
	c.close()
	b.tally(ss)
	if err := p.stop(); err != nil {
		return err
	}
	var err error
	f.sigma, f.viol, err = accuracy(seen.ecc, exact, b.sp.eps)
	return err
}

// runMixed: cold starts, open-loop reads beside edge mutations, then the
// run removes every edge it added and forces a rebuild. reccd's graph is
// then the base graph again, and every answer must equal the in-process
// build of it bit for bit: through closed-loop reads, a sweep of all n
// nodes, and warm restarts. Ending on the base graph also keeps the
// accuracy figure and the restored snapshot the same in every run.
func (b *bench) runMixed(k int, want *oracle) (*flow, error) {
	f := &flow{}
	r := rand.New(rand.NewSource(b.seed))
	probe := b.ext[r.Intn(len(b.ext))]
	p, dataDir, _, err := b.coldStarts(f, k, probe, want)
	if err != nil {
		return nil, err
	}
	stop := func(err error) (*flow, error) {
		_ = p.stop()
		return nil, err
	}
	// The index changes under the workload's own mutations, so answers in
	// this phase get shape checks only.
	c := newClient(p.base, b.conns, b.nodes, nil)
	g := newGen(b.seed, b.ext, b.base, mixSpec{maxBatch: maxBatch, mutEvery: b.sp.mutEvery})
	ops := g.openSchedule(b.sp.rate, time.Duration(b.sp.open*float64(b.secs)))
	if err := f.stealFrom(); err != nil {
		return stop(err)
	}
	var end func()
	var ss []sample
	c.tr = b.tr
	c.phase, end = b.tr.begin("phase.open", 0)
	err = b.watch(f, p.base, func() (err error) {
		ss, err = b.openOn(f, p, c, ops)
		return err
	})
	end()
	if err != nil {
		return stop(err)
	}
	added := map[edgeKey]op{}
	for i, s := range ss {
		if !s.ok || s.kind.isRead() {
			continue
		}
		f.acked = append(f.acked, ops[i])
		e := canon(ops[i].ids[0], ops[i].ids[1])
		if s.kind == opAdd {
			added[e] = ops[i]
		} else {
			delete(added, e)
		}
	}
	var undo []op
	for _, o := range ops {
		if o.kind != opAdd {
			continue
		}
		if e := canon(o.ids[0], o.ids[1]); added[e].kind == opAdd {
			undo = append(undo, op{kind: opRemove, ids: o.ids})
			delete(added, e)
		}
	}
	c.phase, end = b.tr.begin("phase.undo", 0)
	ss, _ = runClosed(c, 1, listOps(undo))
	end()
	c.close()
	b.tally(ss)

	_, end = b.tr.begin("phase.rebuild", 0)
	err = rebuildAndSettle(p.base)
	end()
	b.rep.ops[opControl]++
	if err != nil {
		b.rep.fails[opControl]++
		b.rep.note(err.Error())
		return stop(err)
	}
	c = newClient(p.base, b.conns, b.nodes, want)
	c.tr = b.tr
	c.phase, end = b.tr.begin("phase.closed", 0)
	err = b.watch(f, p.base, func() error {
		return b.measured(f, p, c, timedOps(newGen(b.seed+1<<32, b.ext, b.base, mixSpec{maxBatch: maxBatch}),
			time.Duration((1-b.sp.open)*float64(b.secs))))
	})
	end()
	c.close()
	if err == nil {
		err = f.stealTo()
	}
	if err != nil {
		return stop(err)
	}
	ex, err := ecc.NewExact(b.proxy)
	if err != nil {
		return stop(err)
	}
	if err := b.finish(f, p, want, ex.Distribution(), r); err != nil {
		return nil, err
	}
	return f, b.warmStarts(f, dataDir, restarts, 0, probe, want, nil)
}
