package main

import (
	"fmt"
	"sort"
	"time"
)

// perLayer turns a traced pass, its in-process replay and the untraced pass
// before it into the per-layer metrics. Every workload reports every name;
// a layer the workload leaves idle reads 0.
func (b *bench) perLayer(plain, f *flow, lr *layers) {
	r := b.rep
	add := func(name string, v float64, unit string, n int, note string) {
		r.layer = append(r.layer, metric{name: name, value: v, unit: unit, n: n, note: note})
	}
	one := func(name string, d time.Duration, unit string, note string) {
		v := d.Seconds()
		if unit == "ms" {
			v = ms(d)
		}
		add(name, v, unit, 1, note)
	}
	bit := func(ok bool) float64 {
		if ok {
			return 1
		}
		return 0
	}

	one("graph.load_ms", lr.graphLoad, "ms", "ReadEdgeList + LargestComponent + ToCSR")
	add("solver.iters", float64(lr.iters), "count", 1, "PCG iterations over the sketch solves")
	one("sketch.build_s", lr.sketch, "s", "sketch.NewContext")
	add("sketch.update_ms", mean(lr.update), "ms", len(lr.update), "AddEdgeUpdate / RemoveEdgeUpdate, mean")
	one("hull.approx_s", lr.hull, "s", "hull.Approx in the cold build")
	add("hull.l", float64(lr.l), "count", 1, "")
	add("hull.rounds", float64(lr.rounds), "count", 1, "")
	add("hull.certified", bit(lr.certified), "bool", 1, "")
	add("hull.rederive_ms", mean(lr.rederive), "ms", len(lr.rederive), "ecc.NewFastFromSketch after a mutation, mean")

	q := newDist(lr.query)
	add("ecc.query_us_p50", q.at(0.5), "us", q.n(), "FastIndex.QueryBatch per request")
	add("ecc.query_us_p99", q.at(0.99), "us", q.n(), fmt.Sprintf("%d samples beyond", q.beyond(0.99)))
	var ids, uniq int
	for _, s := range f.main {
		if s.kind == opEcc && s.ok {
			ids += s.ids
			uniq += s.uniq
		}
	}
	add("ecc.distinct_frac", ratio(uniq, ids), "ratio", ids, "distinct ids / requested ids")
	add("ecc.eps_viol_frac", f.viol, "ratio", len(b.ext), fmt.Sprintf("answers outside (1±%g)·exact", b.sp.eps))
	one("ecc.summary_ms", lr.summary, "ms", "Summarize(Distribution())")
	hits, sums := summaryHits(f)
	add("ecc.summary_hit_frac", ratio(hits, sums), "ratio", sums, "summaries on an already summarised generation")

	one("lifecycle.rebuild_s", lr.rebuild, "s", "RebuildAndWait; 0 where the workload never rebuilds")
	add("lifecycle.rebuilds", float64(f.srv.rebuilds), "count", 1, "from /v1/healthz, over the measured phases")
	add("lifecycle.generations", float64(f.srv.generations), "count", 1, "from /v1/healthz, over the measured phases")
	var acks, incr int
	for _, s := range f.main {
		if !s.kind.isRead() && s.ok {
			acks++
			if s.mode == "incremental" {
				incr++
			}
		}
	}
	add("lifecycle.incremental_frac", ratio(incr, acks), "ratio", acks, "mutation acks in incremental mode")

	add("persist.wal_append_ms", mean(lr.wal), "ms", len(lr.wal), "Store.Append, fsync'd, mean")
	one("persist.checkpoint_ms", lr.checkpoint, "ms", "Capture + Store.Checkpoint of the cold build")
	add("persist.checkpoints", float64(f.srv.checkpoints), "count", 1, "from /v1/healthz, over the measured phases")
	one("persist.restore_ms", lr.restore, "ms", "ReadSnapshotFile + Snapshot.Index")
	add("persist.snapshot_bytes", float64(lr.snapBytes), "bytes", 1, "")

	// reccd's handler times cover the same requests as the measured
	// samples, so a client time less its handler time is never negative.
	handler := func(kinds ...opKind) (float64, int) {
		var sum, n float64
		for _, k := range kinds {
			sum += f.srv.sum[endpoint[k]]
			n += f.srv.cnt[endpoint[k]]
		}
		if n == 0 {
			return 0, 0
		}
		return sum / n * 1000, int(n)
	}
	client := map[opKind][]float64{}
	for _, s := range f.main {
		if s.ok {
			client[s.kind] = append(client[s.kind], ms(s.done.Sub(s.sent)))
		}
	}
	for k := opKind(0); k < numOps; k++ {
		ep := endpoint[k]
		h, n := handler(k)
		add("reccd.handler_ms."+ep, h, "ms", n, "mean, from /v1/metrics")
		add("reccd.outside_ms."+ep, nonEmpty(client[k], mean(client[k])-h), "ms", len(client[k]),
			"client mean minus handler mean")
	}

	late := newDist(f.late)
	add("loadgen.late_ms_p99", late.at(0.99), "ms", late.n(), "how late the open loop sent its ops")
	var ops, fails [numOps]int
	for _, s := range f.main {
		ops[s.kind]++
		if !s.ok {
			fails[s.kind]++
		}
	}
	for k := opKind(0); k < numOps; k++ {
		add("loadgen.ops."+opNames[k], float64(ops[k]), "count", 1, "")
		add("loadgen.failed."+opNames[k], float64(fails[k]), "count", 1, "")
	}
	m := newDist(f.muts)
	add("loadgen.mut_ms_p50", m.at(0.5), "ms", m.n(), "mutation latency from due time")
	add("loadgen.mut_ms_p90", m.at(0.9), "ms", m.n(), fmt.Sprintf("%d samples beyond", m.beyond(0.9)))

	// What no layer accounts for, each the end-to-end time less reccd's own
	// account of the same work: process start, listen and the first request
	// around the index build; transport, client and queueing around the
	// handlers.
	add("unattributed.setup_s", f.setup[len(f.setup)-1]-f.buildS, "s", 1,
		"cold start minus reccd's index_build_seconds (sketch + hull + first checkpoint)")
	var reads, muts []float64
	for _, s := range f.main {
		if s.ok && s.kind.isRead() {
			reads = append(reads, ms(s.lat))
		} else if s.ok {
			muts = append(muts, ms(s.lat))
		}
	}
	hr, _ := handler(opEcc, opRes, opSummary)
	add("unattributed.read_ms", nonEmpty(reads, mean(reads)-hr), "ms", len(reads),
		"read mean from due time minus reccd's handler mean")
	hm, _ := handler(opAdd, opRemove)
	add("unattributed.mut_ms", nonEmpty(muts, mean(muts)-hm), "ms", len(muts),
		"mutation mean from due time minus reccd's handler mean")
	add("trace.overhead_read_ms", b.tr.requestCostMS(), "ms", b.tr.reqs,
		"recording a client request's span, mean")
	r.info = append(r.info, metric{name: "trace.delta_read_ms", value: median(f.reads) - median(plain.reads),
		unit: "ms", n: len(f.reads), note: "traced minus untraced read median; host noise swamps it"})

	self := b.tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.info = append(r.info, metric{name: "self_s." + k, value: self[k].Seconds(), unit: "s", n: 1,
			note: "span time minus child spans"})
	}
}

// summaryHits counts the measured /v1/summary answers, and those served on
// a generation an earlier answer (warm-up included) was already served on.
func summaryHits(f *flow) (hits, n int) {
	seen := map[uint64]bool{}
	for _, s := range f.pre {
		if s.kind == opSummary && s.ok {
			seen[s.gen] = true
		}
	}
	for _, s := range f.main {
		if s.kind != opSummary || !s.ok {
			continue
		}
		n++
		if seen[s.gen] {
			hits++
		}
		seen[s.gen] = true
	}
	return hits, n
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func nonEmpty(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return v
}
