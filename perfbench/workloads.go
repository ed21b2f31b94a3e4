package main

import (
	"strconv"
	"time"
)

// spec is one workload: the graph reccd serves, the flags it is built with,
// and the shape of the traffic. Why each exists is in README.md.
type spec struct {
	graph   string // internal/dataset proxy, generated at full scale
	eps     float64
	dim     int
	hullcap int
	// rate is the open-loop arrival rate in ops/s (0: the workload has no
	// open-loop phase) and open the share of the measured seconds it runs;
	// a closed-loop read phase fills the rest. Every mutEvery-th open-loop
	// op is an edge mutation (0: none).
	rate     float64
	open     float64
	mutEvery int
	// setups is the number of cold starts in an untraced run; setup_s and
	// rss_peak_mb are their medians. Cheap cold starts get more of them.
	setups int
}

var specs = map[string]spec{
	// Cold build with a certified (uncapped) hull, then warm restarts.
	"build": {graph: "Unicode-language", eps: 0.3, dim: 64, hullcap: 0, setups: 3},
	// Read-only serving at reccd's shipped build defaults.
	"serve": {graph: "Politician", eps: 0.2, dim: 128, hullcap: 64, rate: 1000, open: 0.6, setups: 3},
	// Reads beside ~1% edge mutations at the shipped defaults.
	"mixed": {graph: "Unicode-language", eps: 0.2, dim: 128, hullcap: 64, rate: 300, open: 0.6, mutEvery: 100, setups: 7},
}

const (
	buildSeed = 1                      // reccd -seed: the index is the same in every run
	maxBatch  = 16                     // ids per eccentricity request
	restarts  = 15                     // warm restarts at the end of serve and mixed
	cycles    = 4                      // serve alternates open and closed loop this many times
	window    = 500 * time.Millisecond // closed-loop throughput window
)

// args lists every reccd flag explicitly, so a later change to a default
// does not change what is measured. The values are the defaults reccd
// ships with, except for each workload's build flags.
func (s spec) args(in, dataDir string) []string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	d := func(x time.Duration) string { return x.String() }
	return []string{
		"-role", "writer",
		"-in", in,
		"-data-dir", dataDir,
		"-eps", f(s.eps),
		"-dim", strconv.Itoa(s.dim),
		"-hullcap", strconv.Itoa(s.hullcap),
		"-seed", strconv.Itoa(buildSeed),
		"-max-batch", "256",
		"-max-inflight", "128",
		"-drift-threshold", "0.5",
		"-max-deletions", "16",
		"-mutation-queue", "64",
		"-checkpoint-interval", d(0),
		"-read-timeout", d(5 * time.Second),
		"-write-timeout", d(30 * time.Second),
		"-idle-timeout", d(2 * time.Minute),
		"-shutdown-grace", d(10 * time.Second),
		"-trace-out", "",
		"-pprof=false",
		"-legacy-routes=false",
	}
}
