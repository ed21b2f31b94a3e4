// Command reccexp regenerates the tables and figures of the paper's
// evaluation on synthetic dataset proxies (see internal/dataset and
// DESIGN.md "Substitutions"). Each experiment prints the measured values
// next to the paper-reported ones where available.
//
// Usage:
//
//	reccexp -exp table1                  # Table I   (stats, phi, R)
//	reccexp -exp fig2                    # Figure 2  (distribution + Burr)
//	reccexp -exp table2 [-large]         # Table II  (EXACT vs FASTQUERY)
//	reccexp -exp fig7                    # Figure 7  (large-network dists)
//	reccexp -exp fig8                    # Figure 8  (heuristics vs OPT)
//	reccexp -exp fig9 [-large]           # Figure 9  (c(s) vs k)
//	reccexp -exp table3                  # Table III (optimizer runtimes)
//	reccexp -exp ablation                # DESIGN.md ablations 1-4
//	reccexp -exp all                     # everything above
//
// Scale flags trade fidelity for runtime; the defaults finish a full run in
// minutes on a laptop. Larger -scale/-largescale values approach the paper's
// sizes at correspondingly larger runtimes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"resistecc/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reccexp:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("reccexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1|fig2|table2|fig7|fig8|fig9|table3|ablation|all")
	scale := fs.Float64("scale", 0.05, "proxy scale for small/mid networks")
	largeScale := fs.Float64("largescale", 0.002, "proxy scale for the 10^6-node networks")
	dim := fs.Int("dim", 0, "sketch dimension override (0 = 12/eps^2)")
	k := fs.Int("k", 20, "edge budget for fig9/table3")
	seed := fs.Int64("seed", 1, "seed for all randomness")
	hullCap := fs.Int("hullcap", 64, "max hull vertices (0 = certified hull)")
	maxCand := fs.Int("maxcand", 32, "hull-pair candidates scored per round")
	exactLimit := fs.Int("exactlimit", 4000, "largest n for EXACTQUERY")
	large := fs.Bool("large", false, "include the large-network variants (table2 corpus, fig9 panels i-l)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := experiments.Options{
		Scale:           *scale,
		LargeScale:      *largeScale,
		Dim:             *dim,
		K:               *k,
		Seed:            *seed,
		MaxHullVertices: *hullCap,
		MaxCandidates:   *maxCand,
		ExactLimit:      *exactLimit,
	}
	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }

	matched := false
	if want("table1") {
		matched = true
		if _, err := experiments.Table1(w, opt); err != nil {
			return fmt.Errorf("table1: %w", err)
		}
	}
	if want("fig2") {
		matched = true
		if _, err := experiments.Fig2(w, opt); err != nil {
			return fmt.Errorf("fig2: %w", err)
		}
	}
	if want("table2") {
		matched = true
		names := smallTable2Corpus()
		if *large {
			names = nil // nil = full corpus including the asterisked networks
		}
		if _, err := experiments.Table2(ctx, w, opt, names); err != nil {
			return fmt.Errorf("table2: %w", err)
		}
	}
	if want("fig7") {
		matched = true
		if _, err := experiments.Fig7(ctx, w, opt); err != nil {
			return fmt.Errorf("fig7: %w", err)
		}
	}
	if want("fig8") {
		matched = true
		if _, err := experiments.Fig8(ctx, w, opt); err != nil {
			return fmt.Errorf("fig8: %w", err)
		}
	}
	if want("fig9") {
		matched = true
		if _, err := experiments.Fig9(ctx, w, opt, nil, 5); err != nil {
			return fmt.Errorf("fig9: %w", err)
		}
		if *large {
			if _, err := experiments.Fig9Large(ctx, w, opt, 5); err != nil {
				return fmt.Errorf("fig9-large: %w", err)
			}
		}
	}
	if want("table3") {
		matched = true
		if _, err := experiments.Table3(ctx, w, opt); err != nil {
			return fmt.Errorf("table3: %w", err)
		}
	}
	if want("ablation") {
		matched = true
		if err := experiments.AblationHull(ctx, w, opt, nil); err != nil {
			return fmt.Errorf("ablation-hull: %w", err)
		}
		if err := experiments.AblationSketchDim(ctx, w, opt, "", nil); err != nil {
			return fmt.Errorf("ablation-dim: %w", err)
		}
		if err := experiments.AblationSolver(ctx, w, opt, ""); err != nil {
			return fmt.Errorf("ablation-solver: %w", err)
		}
		if err := experiments.AblationShermanMorrison(w, opt, 0); err != nil {
			return fmt.Errorf("ablation-sm: %w", err)
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// smallTable2Corpus is the default Table II selection: the non-asterisked
// networks, which admit the EXACTQUERY comparison column.
func smallTable2Corpus() []string {
	return []string{
		"Unicode-language", "EmailUN", "MusaeRU", "Bitcoinotc", "Politician",
		"Government", "Wiki-Vote", "MusaeENGB", "HepTh", "Cond-mat",
		"Musae-facebook", "HU", "HR", "Epinions",
	}
}
