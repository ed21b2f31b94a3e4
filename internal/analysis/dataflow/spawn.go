package dataflow

// Goroutine-spawn resolution and closure capture analysis: the shared
// substrate under the v3 concurrency analyzers. A `go` statement starts a
// body the spawner no longer controls; everything the analyzers reason
// about — which context cancels it, which channel tells it to quit, which
// WaitGroup the spawner waits on — flows through either the spawned
// callee's own declaration or the variables a function literal captures
// from the spawning scope. Both are resolved here, once, so goroutinelife,
// wgbalance and chandisc agree on what a spawn site is.

import (
	"go/ast"
	"go/types"
)

// A SpawnSite is one `go` statement resolved to the body that will run
// concurrently. Exactly one of Lit and Callee is set when the target is
// statically known: Lit for `go func(){...}()`, Callee for `go f()` /
// `go x.m()` on a concrete receiver. Both are nil for dynamic targets
// (interface methods, function values) — the engine never guesses.
type SpawnSite struct {
	// Go is the spawning statement.
	Go *ast.GoStmt
	// Lit is the spawned function literal, when the spawn is `go func(){}()`.
	Lit *ast.FuncLit
	// Callee is the statically resolved spawned function, when the spawn is
	// a direct call (`go worker()`, `go m.run()`).
	Callee *types.Func
}

// Body returns the statically known body of the spawned function: the
// literal's body, or the resolved callee's declaration body when prog holds
// its source. Nil when the target is dynamic or externally defined.
func (s SpawnSite) Body(prog *Program) *ast.BlockStmt {
	if s.Lit != nil {
		return s.Lit.Body
	}
	if s.Callee != nil {
		if fi := prog.Func(s.Callee); fi != nil && fi.Decl != nil {
			return fi.Decl.Body
		}
	}
	return nil
}

// Spawns collects every go statement lexically inside body (including those
// nested in function literals) and resolves each to its static target.
func Spawns(info *types.Info, body *ast.BlockStmt) []SpawnSite {
	var sites []SpawnSite
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		site := SpawnSite{Go: g}
		switch fun := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			site.Lit = fun
		default:
			site.Callee = Callee(info, g.Call)
		}
		sites = append(sites, site)
		return true
	})
	return sites
}

// CapturedBy reports whether the identifier's variable is declared outside
// body — i.e. the spawned body borrowed it from the spawner (captured
// closure variable, method receiver, parameter or package-level state)
// rather than deriving it locally. The concurrency analyzers use this to
// distinguish a join on the spawner's WaitGroup from a Done on a value the
// goroutine pulled off a channel.
func CapturedBy(info *types.Info, body ast.Node, id *ast.Ident) bool {
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return v.Pos() < body.Pos() || v.Pos() >= body.End()
}
