package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/lifecycle"
	"resistecc/internal/persist"
	"resistecc/internal/sketch"
)

// layers is what the in-process replay measured, layer by layer.
type layers struct {
	graphLoad  time.Duration
	iters      int
	sketch     time.Duration
	hull       time.Duration
	l, rounds  int
	certified  bool
	checkpoint time.Duration
	restore    time.Duration
	snapBytes  int64
	query      []float64 // µs per eccentricity request
	summary    time.Duration
	update     []float64 // ms per mutation, by layer
	rederive   []float64
	wal        []float64
	rebuild    time.Duration
}

// replay feeds the traced pass's inputs through each layer's public
// functions, in the order reccd calls them: the cold build (graph → sketch
// → hull → persist write and read), then every read, then every
// acknowledged mutation (sketch update → hull re-derivation → WAL append),
// then one full rebuild where the workload rebuilds.
func (b *bench) replay(f *flow) (*layers, error) {
	lr := &layers{}
	tr := b.tr
	ctx := context.Background()
	root, end := tr.begin("replay.build", 0)
	var (
		g   *graph.Graph
		csr *graph.CSR
		sk  *sketch.Sketch
		hr  *hull.Result
		err error
	)
	lr.graphLoad, err = tr.timed("graph.load", root, func() error {
		raw, _, err := graph.LoadEdgeList(b.in)
		if err != nil {
			return err
		}
		g, _ = raw.LargestComponent()
		csr = g.ToCSR()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sopt := sketch.Options{Epsilon: b.sp.eps, Dim: b.sp.dim, Seed: buildSeed}
	if lr.sketch, err = tr.timed("sketch.build", root, func() (err error) {
		sk, err = sketch.NewContext(ctx, csr, sopt)
		return err
	}); err != nil {
		return nil, err
	}
	lr.iters = sk.Stats.TotalIters
	hopt, err := ecc.HullOptionsFor(ecc.FastOptions{Sketch: sopt, Hull: hull.Options{MaxVertices: b.sp.hullcap}})
	if err != nil {
		return nil, err
	}
	if lr.hull, err = tr.timed("hull.approx", root, func() (err error) {
		hr, err = hull.Approx(sk.Points(), hopt)
		return err
	}); err != nil {
		return nil, err
	}
	lr.l, lr.rounds, lr.certified = len(hr.Vertices), hr.Rounds, hr.Certified
	if lr.l != f.built.HullBoundary || lr.rounds != f.built.HullRounds || lr.iters != f.built.SolverIters {
		b.rep.fail("the replay built l=%d in %d rounds with %d solver iterations; reccd reported l=%d, %d rounds, %d iterations",
			lr.l, lr.rounds, lr.iters, f.built.HullBoundary, f.built.HullRounds, f.built.SolverIters)
	}
	fast := &ecc.Fast{Sk: sk, Boundary: hr.Vertices, HullInfo: hr}

	st, err := persist.Open(filepath.Join(b.dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	defer st.Close()
	params := persist.Params{Epsilon: b.sp.eps, Dim: b.sp.dim, Seed: buildSeed, HullMaxVertices: b.sp.hullcap}
	if lr.checkpoint, err = tr.timed("persist.checkpoint", root, func() error {
		cs := lifecycle.CheckpointState{Gen: 1, Graph: g.Clone(), Fast: fast}
		return st.Checkpoint(persist.Capture(cs, params, persist.Fingerprint(g), true))
	}); err != nil {
		return nil, err
	}
	snaps, err := filepath.Glob(filepath.Join(st.Dir(), "snapshot-*.snap"))
	if err != nil || len(snaps) != 1 {
		return nil, fmt.Errorf("replay store holds snapshots %v (%v)", snaps, err)
	}
	fi, err := os.Stat(snaps[0])
	if err != nil {
		return nil, err
	}
	lr.snapBytes = fi.Size()
	if lr.restore, err = tr.timed("persist.restore", root, func() error {
		snap, err := persist.ReadSnapshotFile(snaps[0])
		if err == nil {
			_, err = snap.Index()
		}
		return err
	}); err != nil {
		return nil, err
	}
	end()

	root, end = tr.begin("replay.reads", 0)
	buf := ecc.GetQueryBuf()
	for _, s := range f.main {
		switch s.kind {
		case opEcc:
			q := make([]int, len(s.op.ids))
			for i, id := range s.op.ids {
				q[i] = b.intern[id]
			}
			d, _ := tr.timed("ecc.query", root, func() error { fast.QueryBatch(q, buf); return nil })
			lr.query = append(lr.query, float64(d)/float64(time.Microsecond))
		case opRes:
			u, v := b.intern[s.op.ids[0]], b.intern[s.op.ids[1]]
			_, _ = tr.timed("sketch.resistance", root, func() error { sk.Resistance(u, v); return nil })
		}
	}
	buf.Release()
	lr.summary, _ = tr.timed("ecc.summary", root, func() error { ecc.Summarize(fast.Distribution()); return nil })
	end()

	if len(f.acked) == 0 {
		return lr, nil
	}
	root, end = tr.begin("replay.mutations", 0)
	defer end()
	cur, curSk, incremental := g.Clone(), sk, true
	for i, o := range f.acked {
		u, v, add := b.intern[o.ids[0]], b.intern[o.ids[1]], o.kind == opAdd
		id, mend := tr.begin("lifecycle.apply", root)
		if incremental {
			// A failed update leaves reccd's index stale until a rebuild;
			// the replay then times only what a stale mutation costs.
			var nsk *sketch.Sketch
			csr := cur.ToCSR()
			d, err := tr.timed("sketch.update", id, func() (err error) {
				if add {
					nsk, _, err = curSk.AddEdgeUpdate(csr, u, v, sopt.Solver)
				} else {
					nsk, _, err = curSk.RemoveEdgeUpdate(csr, u, v, sopt.Solver)
				}
				return err
			})
			if incremental = err == nil; incremental {
				lr.update = append(lr.update, ms(d))
				if d, err = tr.timed("hull.rederive", id, func() error {
					_, err := ecc.NewFastFromSketch(nsk, hopt)
					return err
				}); err != nil {
					return nil, err
				}
				lr.rederive = append(lr.rederive, ms(d))
				curSk = nsk
			}
		}
		d, err := tr.timed("persist.wal_append", id, func() error {
			return st.Append(persist.Record{Seq: uint64(i + 1), Add: add, U: u, V: v})
		})
		if err != nil {
			return nil, err
		}
		lr.wal = append(lr.wal, ms(d))
		if add {
			err = cur.AddEdge(u, v)
		} else {
			err = cur.RemoveEdge(u, v)
		}
		mend()
		if err != nil {
			return nil, err
		}
	}
	m, err := lifecycle.NewFromState(cur, fast, lifecycle.Restored{},
		lifecycle.Config{Sketch: sopt, Hull: hull.Options{MaxVertices: b.sp.hullcap}})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	lr.rebuild, err = tr.timed("lifecycle.rebuild", root, func() error {
		_, err := m.RebuildAndWait(ctx)
		return err
	})
	return lr, err
}
