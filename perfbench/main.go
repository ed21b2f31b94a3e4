// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and ./cmd/reccd), starts reccd as a child
// process per workload, drives it over HTTP with at most nproc connections,
// checks every answer, and prints one metric per line followed by a JSON
// result line. With -trace 1 it drives the workload a second time with
// client spans, replays the same inputs through each layer's public
// functions in process, and reports per-layer metrics instead.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: build, serve or mixed")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds  = flag.Int("seconds", 10, "measured seconds per pass")
		traced   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass")
		reccd    = flag.String("reccd", "", "reccd binary built from this checkout")
		work     = flag.String("work", ".bench_build", "directory for data dirs, logs and spans")
		exactOut = flag.String("write-exact", "", "compute serve's exact eccentricities into this file and exit")
	)
	flag.Parse()
	if *exactOut != "" {
		if err := writeServeExact(*exactOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	sp, ok := specs[*workload]
	if !ok || *reccd == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -reccd BIN --workload build|serve|mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b, err := newBench(*workload, sp, *seed, time.Duration(*seconds)*time.Second, runtime.NumCPU(), *reccd, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	err = b.run(*traced == 1)
	b.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := b.rep.print(os.Stdout, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !b.rep.correct() {
		os.Exit(1)
	}
}

// pass runs the workload once: k cold starts, then the measured phases.
func (b *bench) pass(k int, ref *oracle, exact []float64) (*flow, error) {
	switch b.name {
	case "build":
		return b.runBuild(k)
	case "serve":
		return b.runServe(k, ref, exact)
	default:
		return b.runMixed(k, ref)
	}
}

// reference returns what serve and mixed check reccd against: an in-process
// build of the same graph with the same options, and for serve the exact
// eccentricities of its graph.
func (b *bench) reference() (*oracle, []float64, error) {
	if b.name == "build" {
		return nil, nil, nil
	}
	ref, err := b.oracleFor(b.lcc)
	if err != nil || b.name != "serve" {
		return ref, nil, err
	}
	exact, err := loadExact(b.proxy)
	return ref, exact, err
}

func (b *bench) run(traced bool) error {
	ref, exact, err := b.reference()
	if err != nil {
		return err
	}
	if !traced {
		f, err := b.pass(b.sp.setups, ref, exact)
		if err != nil {
			return err
		}
		b.endToEnd(f)
		return nil
	}
	// Untraced pass first, for the tracing overhead, then the traced pass
	// on the same seed, then the in-process replay of its inputs.
	plain, err := b.pass(1, ref, exact)
	if err != nil {
		return err
	}
	b.tr = newTracer()
	f, err := b.pass(1, ref, exact)
	if err != nil {
		return err
	}
	lr, err := b.replay(f)
	if err != nil {
		return err
	}
	b.perLayer(plain, f, lr)
	return b.tr.write(filepath.Join(filepath.Dir(filepath.Dir(b.dir)), "traces",
		fmt.Sprintf("%s-seed%d.jsonl", b.name, b.seed)))
}

// endToEnd turns an untraced pass into the gated metrics, and the
// wall-clock serving numbers that are printed but not gated: on a small VM
// they move with the CPU time the host steals (README.md, "Why the gate is
// mostly CPU time").
func (b *bench) endToEnd(f *flow) {
	r := b.rep
	us := func(d time.Duration, n int) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(1, n))
	}
	var svc []float64
	for _, s := range f.main {
		if s.kind.isRead() {
			svc = append(svc, ms(s.done.Sub(s.sent)))
		}
	}
	// op_cpu_us covers a fixed amount of work: the open-loop schedule where
	// the workload has one, otherwise build's post-restart sweeps. A closed
	// loop's op count depends on speed and would dilute it.
	opCPU, ops := f.openCPU, f.openOps
	if ops == 0 {
		opCPU, ops = f.readCPU, f.readsDone
	}
	r.e2e = append(r.e2e,
		metric{name: "setup_s", value: median(f.setup), unit: "s", n: len(f.setup), note: "launch to first correct answer, median of cold starts"},
		metric{name: "op_cpu_us", value: us(opCPU, ops), unit: "us", n: ops,
			note: "reccd CPU per op of the open loop (build: of the sweeps), mutations and rebuilds included"},
		metric{name: "ecc_sigma", value: f.sigma, unit: "ratio", n: len(b.ext), note: "Eq. 8 against the exact pseudoinverse"},
		metric{name: "rss_peak_mb", value: median(f.rssMB), unit: "MB", n: len(f.rssMB), note: "VmHWM at first answer, median of cold starts"})

	p50, p99, k := windowed(f.reads)
	r.info = append(r.info,
		metric{name: "setup_cpu_s", value: median(f.setupCPU), unit: "s", n: len(f.setupCPU), note: "reccd CPU to first answer, median of cold starts"},
		metric{name: "read_cpu_us", value: us(f.readCPU, f.readsDone), unit: "us", n: f.readsDone, note: "reccd CPU per read, closed loop"},
		metric{name: "read_service_p50_ms", value: median(svc), unit: "ms", n: len(svc), note: "read round trip, send to answer, median"},
		metric{name: "warmstart_s", value: median(f.warm), unit: "s", n: len(f.warm), note: "restart to first correct answer, median"},
		metric{name: "warmstart_cpu_ms", value: median(f.warmCPU), unit: "ms", n: len(f.warmCPU), note: "reccd CPU to first answer, median of warm restarts"},
		metric{name: "read_p50_ms", value: p50, unit: "ms", n: len(f.reads),
			note: fmt.Sprintf("from due time; median over %d windows of each window's median", k)},
		metric{name: "read_p99_ms", value: p99, unit: "ms", n: len(f.reads),
			note: fmt.Sprintf("from due time; median over %d windows of ≥%d samples of each window's p99", k, windowSamples)},
		metric{name: "read_tput_rps", value: median(f.tput), unit: "1/s", n: len(f.tput),
			note: fmt.Sprintf("median over closed-loop windows, %d connections", b.conns)},
		metric{name: "host_steal_frac", value: f.steal, unit: "ratio", n: 1, note: "CPU the host took during the measured phases"},
		metric{name: "eps_viol_frac", value: f.viol, unit: "ratio", n: len(b.ext), note: fmt.Sprintf("outside (1±%g)·exact", b.sp.eps)},
		metric{name: "fail_frac", value: float64(r.failedOps()) / float64(max(1, r.attempted())), unit: "ratio", n: r.attempted()})
	if len(f.muts) > 0 {
		timing(&r.info, "mut_p50_ms", "mut_p90_ms", 0.9, f.muts, "ms")
	}
	if len(f.late) > 0 {
		d := newDist(f.late)
		r.info = append(r.info, metric{name: "loadgen.late_ms_p99", value: d.at(0.99), unit: "ms", n: d.n()})
	}
}
