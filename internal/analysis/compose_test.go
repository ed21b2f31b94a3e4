package analysis

import (
	"path/filepath"
	"testing"

	"resistecc/internal/analysis/framework"
)

// TestDirectivesCompose runs the FULL suite over one fixture
// that layers every directive the framework understands — v1 //recclint:holds
// and "guarded by" annotations, v2 lockrank/ctxroot, and an inline
// //recclint:ignore silencing a v2 dataflow finding — and requires zero
// findings. This pins the contract that v2 analyzers joined the existing
// directive surface instead of forking it.
func TestDirectivesCompose(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	root, err := framework.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "compose")
	pkg, err := framework.LoadDir(root, dir)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := framework.RunAnalyzers([]*framework.Package{pkg}, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("compose fixture should be clean, got: %s", f.String())
	}
}
