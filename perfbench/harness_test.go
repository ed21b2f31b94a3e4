package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testGen(seed int64, mutEvery int) *gen {
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(1000 + i)
	}
	base := []edgeKey{canon(1000, 1001), canon(1001, 1002)}
	return newGen(seed, ids, base, mixSpec{maxBatch: maxBatch, mutEvery: mutEvery})
}

// encode serialises a schedule, so equal schedules compare byte for byte.
func encode(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		_ = binary.Write(&b, binary.LittleEndian, []int64{int64(o.kind), int64(o.due), int64(o.ref), int64(len(o.ids))})
		_ = binary.Write(&b, binary.LittleEndian, o.ids)
	}
	return b.Bytes()
}

func TestScheduleSameSeedSameBytes(t *testing.T) {
	a := encode(testGen(7, 20).openSchedule(500, 2*time.Second))
	b := encode(testGen(7, 20).openSchedule(500, 2*time.Second))
	c := encode(testGen(8, 20).openSchedule(500, 2*time.Second))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleMutationsAreValid(t *testing.T) {
	ops := testGen(3, 5).openSchedule(2000, 5*time.Second)
	have := map[edgeKey]bool{canon(1000, 1001): true, canon(1001, 1002): true}
	var adds, removes int
	for i, o := range ops {
		switch o.kind {
		case opAdd:
			e := canon(o.ids[0], o.ids[1])
			if o.ids[0] == o.ids[1] || have[e] {
				t.Fatalf("op %d adds a self loop or an existing edge %v", i, o.ids)
			}
			have[e] = true
			adds++
		case opRemove:
			a := ops[o.ref]
			if o.ref >= i || a.kind != opAdd || canon(a.ids[0], a.ids[1]) != canon(o.ids[0], o.ids[1]) {
				t.Fatalf("op %d removes %v, which op %d did not add", i, o.ids, o.ref)
			}
			delete(have, canon(o.ids[0], o.ids[1]))
			removes++
		}
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("%d adds, %d removes: the mix should draw both", adds, removes)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{9, 0, 0, false},       // even p75 has only 2 beyond
		{40, 0.75, 10, true},   // p75 is the highest rung with 10 beyond
		{100, 0.9, 10, true},   // p90 has exactly 10 beyond
		{999, 0.9, 99, true},   // p99 has 9 beyond: one short
		{1000, 0.99, 10, true}, // p99 has 10 beyond
		{20000, 0.999, 20, true},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		q, v, beyond, ok := newDist(xs).tail()
		if ok != tc.ok || q != tc.q || beyond != tc.beyond {
			t.Errorf("n=%d: tail = (%v, %d, %v), want (%v, %d, %v)", tc.n, q, beyond, ok, tc.q, tc.beyond, tc.ok)
		}
		if ok && v != float64(tc.n-tc.beyond) {
			t.Errorf("n=%d: %s = %v, want %v", tc.n, pct(q), v, tc.n-tc.beyond)
		}
	}
}

func summaryServer(t *testing.T, stall time.Duration) *httptest.Server {
	var first atomic.Bool
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		w.Header().Set("X-Index-Generation", "1")
		_ = json.NewEncoder(w).Encode(summaryAnswer{Radius: 1, Diameter: 2, Center: []int64{1}})
	}))
}

// A stalled request holds the only connection; the requests due during the
// stall are charged the wait, not just their own service time.
func TestDueTimeChargesStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := summaryServer(t, stall)
	defer srv.Close()
	c := newClient(srv.URL, 1, nil, nil)
	defer c.close()
	ops := make([]op, 10)
	for i := range ops {
		ops[i] = op{kind: opSummary, due: time.Duration(i) * 20 * time.Millisecond}
	}
	res := runOpen(c, ops, 1)
	for i, s := range res {
		if !s.ok {
			t.Fatalf("op %d failed: %s", i, s.err)
		}
		// Op i is due at 20i ms but cannot be sent before the stall ends.
		if min := stall - ops[i].due; s.lat < min {
			t.Errorf("op %d: latency %v, want at least %v (the stall left)", i, s.lat, min)
		}
		if i > 0 && s.late < stall-ops[i].due-5*time.Millisecond {
			t.Errorf("op %d: sent %v late, want about %v", i, s.late, stall-ops[i].due)
		}
	}
	// Timed from dispatch instead, the queued ops would look fast.
	if d := res[5].done.Sub(res[5].sent); d > 100*time.Millisecond {
		t.Errorf("op 5 service time %v, want well under the stall", d)
	}
}

// One perturbed float in an otherwise right answer is a failed op.
func TestWrongAnswerIsFailedOp(t *testing.T) {
	want := &oracle{ecc: map[int64]eccAnswer{
		7: {Node: 7, Eccentricity: 1.25, Farthest: 9},
		9: {Node: 9, Eccentricity: 2.5, Farthest: 7},
	}}
	perturb := atomic.Bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var out []eccAnswer
		for _, id := range strings.Split(r.URL.Query().Get("node"), ",") {
			a := want.ecc[map[string]int64{"7": 7, "9": 9}[id]]
			if perturb.Load() && a.Node == 9 {
				a.Eccentricity = math.Nextafter(a.Eccentricity, 3)
			}
			out = append(out, a)
		}
		_ = json.NewEncoder(w).Encode(out)
	}))
	defer srv.Close()
	b := &bench{rep: &report{}}
	c := newClient(srv.URL, 1, nil, want)
	defer c.close()
	o := op{kind: opEcc, ids: []int64{7, 9}}
	ok := c.exec(&o)
	perturb.Store(true)
	bad := c.exec(&o)
	b.tally([]sample{ok, bad})
	if !ok.ok || bad.ok {
		t.Fatalf("exact answer ok=%v (%s), perturbed answer ok=%v", ok.ok, ok.err, bad.ok)
	}
	if b.rep.attempted() != 2 || b.rep.failedOps() != 1 || b.rep.correct() {
		t.Fatalf("attempted %d, failed %d, correct %v; want 2, 1, false",
			b.rep.attempted(), b.rep.failedOps(), b.rep.correct())
	}
}

func TestAccuracy(t *testing.T) {
	served := map[int64]eccAnswer{0: {Eccentricity: 1.1}, 1: {Eccentricity: 2}, 2: {Eccentricity: 2.5}}
	sigma, viol, err := accuracy(served, []float64{1, 2, 2}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sigma-0.35/3) > 1e-12 || viol != 1.0/3 {
		t.Fatalf("sigma %v viol %v, want %v and 1/3", sigma, viol, 0.35/3)
	}
}

// Phases on successive reccd processes sum per process, and a counter that
// goes backwards is an error rather than a wrapped unsigned difference.
func TestServerDeltaSumsPerProcess(t *testing.T) {
	view := func(gen, checkpoints uint64, n, secs float64) serverView {
		v := serverView{sum: map[string]float64{"eccentricity": secs}, cnt: map[string]float64{"eccentricity": n}}
		v.h.Generation, v.h.Persist.Checkpoints = gen, checkpoints
		return v
	}
	var d serverDelta
	if err := d.since(view(1, 1, 0, 0), view(3, 2, 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	// A restart: the second process counts from its own start.
	if err := d.since(view(1, 1, 2, 0.1), view(1, 1, 12, 0.6)); err != nil {
		t.Fatal(err)
	}
	if d.generations != 2 || d.checkpoints != 1 || d.cnt["eccentricity"] != 20 || math.Abs(d.sum["eccentricity"]-1) > 1e-12 {
		t.Fatalf("summed %+v", d)
	}
	if err := d.since(view(3, 2, 10, 0.5), view(1, 1, 12, 0.6)); err == nil {
		t.Fatal("counters that went backwards were summed")
	}
}
