package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"os"
	"strconv"
	"strings"

	"resistecc/internal/dataset"
	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/persist"
)

// politicianExact holds the exact resistance eccentricity of every node of
// serve's graph, by node id. The dense pseudoinverse of a 5908-node graph
// takes tens of minutes, so it is computed once (perfbench -write-exact)
// and checked in; the header pins the graph it belongs to.
//
//go:embed testdata/politician_exact.txt
var politicianExact string

func exactHeader(g *graph.Graph) string {
	return fmt.Sprintf("# n=%d m=%d fingerprint=%016x", g.N(), g.M(), persist.Fingerprint(g))
}

// loadExact returns the checked-in exact eccentricities for g, refusing
// them if g is not the graph they were computed on.
func loadExact(g *graph.Graph) ([]float64, error) {
	sc := bufio.NewScanner(strings.NewReader(politicianExact))
	want := exactHeader(g)
	var out []float64
	header := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# n=") {
			if line != want {
				return nil, fmt.Errorf("exact eccentricities are for %q, the graph is %q", line, want)
			}
			header = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		x, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	if !header || len(out) != g.N() {
		return nil, fmt.Errorf("exact eccentricities: header %v, %d values for %d nodes", header, len(out), g.N())
	}
	return out, nil
}

// writeServeExact computes the exact eccentricities of serve's graph and
// writes them in the format loadExact reads.
func writeServeExact(path string) error {
	info, err := dataset.Get(specs["serve"].graph)
	if err != nil {
		return err
	}
	g, err := info.Proxy(1)
	if err != nil {
		return err
	}
	ex, err := ecc.NewExact(g)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# Exact resistance eccentricities of the Politician proxy (internal/dataset, scale 1), one per node id.")
	fmt.Fprintln(w, exactHeader(g))
	for _, x := range ex.Distribution() {
		fmt.Fprintln(w, strconv.FormatFloat(x, 'g', -1, 64))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
