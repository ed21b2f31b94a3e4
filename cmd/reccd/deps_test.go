package main

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// serverDeps is every in-module package reccd links: the paper's pipeline
// (graph, solver, sketch, hull, ecc, the optimizers with the PageRank
// baseline, the Burr statistics), the fan-out and loop primitives both
// share, and the serving tier around it. A package
// outside that system must not reach the server through an import; adding
// one here is a deliberate, reviewed change.
var serverDeps = []string{
	"resistecc",
	"resistecc/cmd/reccd",
	"resistecc/internal/ecc",
	"resistecc/internal/graph",
	"resistecc/internal/hull",
	"resistecc/internal/lifecycle",
	"resistecc/internal/linalg",
	"resistecc/internal/obs",
	"resistecc/internal/optimize",
	"resistecc/internal/pagerank",
	"resistecc/internal/par",
	"resistecc/internal/persist",
	"resistecc/internal/repl",
	"resistecc/internal/sketch",
	"resistecc/internal/solver",
	"resistecc/internal/stats",
	"resistecc/internal/trace",
}

func TestInModuleDependencies(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "resistecc" || strings.HasPrefix(pkg, "resistecc/") {
			got = append(got, pkg)
		}
	}
	for _, pkg := range got {
		if !slices.Contains(serverDeps, pkg) {
			t.Errorf("reccd now depends on %s", pkg)
		}
	}
	for _, pkg := range serverDeps {
		if !slices.Contains(got, pkg) {
			t.Errorf("reccd no longer depends on %s; drop it from serverDeps", pkg)
		}
	}
}
