package analysis

import (
	"testing"

	"resistecc/internal/analysis/framework"
)

// TestRepoIsClean runs the full recclint suite over every package in the
// module and requires zero findings. The invariants the analyzers encode —
// guarded fields locked, durability errors observed, no float ==, no
// nondeterminism in build/serialize paths — are not aspirational: the tree
// satisfies them at all times, and any exception carries an inline
// //recclint:ignore justification.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := framework.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	findings, err := framework.RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
}

// TestRegistry pins the shape of the analyzer registry: all twelve checkers
// exist, names are unique (suppression directives key on them), and every
// analyzer documents itself and is runnable per-package or program-wide.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 12 {
		t.Fatalf("expected at least 12 analyzers, got %d", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || (a.Run == nil && a.RunProgram == nil) {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{
		"atomicmix", "chandisc", "ctxflow", "determinism",
		"erridentity", "floateq", "goroutinelife", "lockguard",
		"lockorder", "metrichygiene", "syncerr", "wgbalance",
	} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}
}
