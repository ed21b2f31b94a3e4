// Package badpkg is a known-bad fixture module for cmd/recclint's exit-code
// and output-format tests: it compiles cleanly but carries deliberate
// findings from several analyzers. Kept in its own module so the repo's own
// lint sweep never sees it.
package badpkg

import "context"

// Same carries a floateq finding: two computed floats compared with ==.
func Same(a, b float64) bool {
	return a == b
}

// Background carries a ctxflow finding: a fresh root context minted below
// the server layer with no ctxroot justification.
func Background() context.Context {
	return context.Background()
}
