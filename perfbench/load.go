package main

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind enumerates the API operations the harness sends.
type opKind uint8

const (
	opEcc opKind = iota
	opRes
	opSummary
	opAdd
	opRemove
	numOps
)

var opNames = [numOps]string{"ecc", "resistance", "summary", "add", "remove"}

// endpoint names the reccd /v1/metrics series each operation lands in.
var endpoint = [numOps]string{"eccentricity", "resistance", "summary", "edges_add", "edges_remove"}

func (k opKind) isRead() bool { return k <= opSummary }

// op is one request of a schedule. ids are external node ids: the batch of
// an eccentricity query, or the (u, v) pair of a resistance query or an
// edge mutation. A remove names the add it undoes by schedule index (ref),
// and is sent only once that add has been acknowledged.
type op struct {
	kind opKind
	due  time.Duration // offset from the phase start; open loop only
	ids  []int64
	ref  int
}

// mixSpec is the request mix shared by every read phase: ~94% eccentricity
// batches of 1–16 ids drawn Zipf(1.2), ~5% resistance, ~1% summary. With
// mutEvery set, every mutEvery-th op is an edge mutation instead: three in
// four add an edge between a Zipf-popular node and a uniform one, the
// fourth removes a random earlier add. Fixed positions keep the number of
// mutations, and so the rebuild load, the same in every run; the seed picks
// their edges and arrival times.
type mixSpec struct {
	maxBatch int
	mutEvery int
}

const (
	eccShare    = 0.94
	resShare    = 0.05
	removeEvery = 4
	zipfS       = 1.2
	zipfV       = 8
)

type edgeKey [2]int64

func canon(u, v int64) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// gen draws a seeded op stream. Node popularity is Zipf over a seeded
// permutation of the ids, as in internal/trace's Workload generator; unlike
// that generator it knows the base edge set, so no add duplicates an edge
// and no op fails by construction.
type gen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	rank []int64 // popularity rank → external id
	mix  mixSpec
	have map[edgeKey]bool
	live []int // schedule indexes of adds not yet removed
	muts int   // mutations drawn so far
}

func newGen(seed int64, ids []int64, base []edgeKey, mix mixSpec) *gen {
	r := rand.New(rand.NewSource(seed))
	g := &gen{
		r:    r,
		zipf: rand.NewZipf(r, zipfS, zipfV, uint64(len(ids)-1)),
		rank: make([]int64, len(ids)),
		mix:  mix,
		have: make(map[edgeKey]bool, len(base)),
	}
	for i, p := range r.Perm(len(ids)) {
		g.rank[i] = ids[p]
	}
	for _, e := range base {
		g.have[e] = true
	}
	return g
}

func (g *gen) pick() int64 { return g.rank[g.zipf.Uint64()] }

// next draws the op that will be ops[len(ops)]; ops holds the earlier
// draws, so a remove can name the add it undoes.
func (g *gen) next(ops []op) op {
	if g.mix.mutEvery > 0 && (len(ops)+1)%g.mix.mutEvery == 0 {
		g.muts++
		if len(g.live) > 0 && g.muts%removeEvery == 0 {
			j := g.r.Intn(len(g.live))
			ref := g.live[j]
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			a := ops[ref].ids
			delete(g.have, canon(a[0], a[1]))
			return op{kind: opRemove, ids: []int64{a[0], a[1]}, ref: ref}
		}
		for try := 0; try < 32; try++ {
			u, v := g.pick(), g.rank[g.r.Intn(len(g.rank))]
			if u == v || g.have[canon(u, v)] {
				continue
			}
			g.have[canon(u, v)] = true
			g.live = append(g.live, len(ops))
			return op{kind: opAdd, ids: []int64{u, v}}
		}
	}
	switch x := g.r.Float64(); {
	case x < eccShare:
		ids := make([]int64, 1+g.r.Intn(g.mix.maxBatch))
		for i := range ids {
			ids[i] = g.pick()
		}
		return op{kind: opEcc, ids: ids}
	case x < eccShare+resShare:
		return op{kind: opRes, ids: []int64{g.pick(), g.rank[g.r.Intn(len(g.rank))]}}
	default:
		return op{kind: opSummary}
	}
}

// openSchedule draws a Poisson arrival schedule at rate ops/s lasting d.
func (g *gen) openSchedule(rate float64, d time.Duration) []op {
	var ops []op
	due := time.Duration(0)
	for {
		due += time.Duration(g.r.ExpFloat64() / rate * float64(time.Second))
		if due >= d {
			return ops
		}
		o := g.next(ops)
		o.due = due
		ops = append(ops, o)
	}
}

// sample is the outcome of one sent op. lat runs from the op's due time to
// its answer: in the open loop the due time is the schedule's, so a stall
// is charged to every request queued behind it; in a closed loop an op is
// due when it is sent. late is how far behind schedule it was sent.
type sample struct {
	op   *op
	kind opKind
	ok   bool
	err  string
	gen  uint64 // X-Index-Generation of the answer
	lat  time.Duration
	late time.Duration
	sent time.Time
	done time.Time
	ids  int    // ids requested (eccentricity)
	uniq int    // distinct ids among them
	mode string // a mutation ack's mode
}

// runOpen sends a schedule open loop over conns connections: each worker
// takes the next op in schedule order, sleeps until it is due, and sends it.
// With every connection busy the next op goes out late, and that wait is
// part of its latency. Due times count from the call.
func runOpen(c *client, ops []op, conns int) []sample {
	res := make([]sample, len(ops))
	acked := make([]chan struct{}, len(ops))
	for i := range ops {
		if ops[i].kind == opAdd {
			acked[i] = make(chan struct{})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := start.Add(o.due)
				sleepUntil(due)
				if o.kind == opRemove {
					<-acked[o.ref]
					if !res[o.ref].ok {
						res[i] = sample{op: o, kind: o.kind, err: "its add was not acknowledged"}
						continue
					}
				}
				s := c.exec(o)
				s.late = s.sent.Sub(due)
				s.lat = s.done.Sub(due)
				res[i] = s
				if acked[i] != nil {
					close(acked[i])
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's timers wake a sleeping goroutine ~0.6 ms late at the median on
// a small VM, which the open loop would charge to every request; a direct
// nanosleep wakes within ~0.1 ms.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			time.Sleep(d)
		}
	}
}

// runClosed keeps conns connections busy with ops from next until it
// returns nil; each op is due when it is sent. It returns the samples in
// completion order and the phase's wall time.
func runClosed(c *client, conns int, next func() *op) ([]sample, time.Duration) {
	var (
		mu  sync.Mutex
		out []sample
		wg  sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				o := next()
				mu.Unlock()
				if o == nil {
					return
				}
				s := c.exec(o)
				s.lat = s.done.Sub(s.sent)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// listOps feeds a fixed list to runClosed.
func listOps(ops []op) func() *op {
	i := 0
	return func() *op {
		if i >= len(ops) {
			return nil
		}
		i++
		return &ops[i-1]
	}
}

// timedOps feeds runClosed from g until d has elapsed.
func timedOps(g *gen, d time.Duration) func() *op {
	end := time.Now().Add(d)
	var drawn []op
	return func() *op {
		if time.Now().After(end) {
			return nil
		}
		o := g.next(drawn)
		return &o
	}
}
