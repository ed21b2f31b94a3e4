// Package chandisc implements the recclint channel-discipline check. The
// rules are the ownership discipline the repo's serving tier relies on:
//
//   - One owner closes: a channel stored in a struct field or package
//     variable is closed from exactly one function. Two closers is a
//     latent double-close panic.
//   - No close races with its own guard: the select-then-close idiom
//     (`select { case <-ch: default: close(ch) }`) is a TOCTOU — two
//     concurrent callers can both reach the default clause and the second
//     close panics. Idempotent close goes through sync.Once.
//   - No send or re-close after close on any path: a must-closed
//     dataflow lattice over each function's CFG catches
//     `close(ch); ch <- v` however much control flow sits in between.
//   - Ranging a channel requires a closer: `for range ch` on a local
//     channel nothing in the program ever closes blocks forever.
//
// Everything the engine cannot name (close(f()), channels that escape into
// dynamic call sites) degrades toward silence, never toward a false
// positive.
package chandisc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"resistecc/internal/analysis/dataflow"
	"resistecc/internal/analysis/framework"
)

// Analyzer is the chandisc check.
var Analyzer = &framework.Analyzer{
	Name:       "chandisc",
	Doc:        "channel close discipline: one owning closer, no racy select-then-close, no send after close on any path, range only over channels something closes",
	RunProgram: run,
}

func run(pass *framework.ProgramPass) error {
	sites := dataflow.CloseSites(pass.Pkgs)
	closedAnywhere := make(map[string]bool, len(sites))
	for _, cs := range sites {
		closedAnywhere[cs.Key] = true
	}
	reportMultipleClosers(pass, sites)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkRacyCloseGuard(pass, pkg, fd)
				checkClosePaths(pass, pkg, fd)
				checkRangeNeverClosed(pass, pkg, fd, closedAnywhere)
			}
		}
	}
	return nil
}

// reportMultipleClosers flags shared channels (fields, package variables)
// closed from more than one function. Locals are exempt: a local channel
// closed twice is a path property, handled by checkClosePaths.
func reportMultipleClosers(pass *framework.ProgramPass, sites []dataflow.CloseSite) {
	type closer struct {
		fn  string
		pos token.Pos
	}
	byKey := make(map[string][]closer)
	for _, cs := range sites {
		if strings.HasPrefix(cs.Key, "local@") || cs.Fn == nil {
			continue
		}
		byKey[cs.Key] = append(byKey[cs.Key], closer{cs.Fn.Name.Name, cs.Pos})
	}
	for key, closers := range byKey {
		fns := make(map[string]bool)
		for _, c := range closers {
			fns[c.fn] = true
		}
		if len(fns) < 2 {
			continue
		}
		names := make([]string, 0, len(fns))
		for fn := range fns {
			names = append(names, fn)
		}
		sort.Strings(names)
		sort.Slice(closers, func(i, j int) bool { return closers[i].pos < closers[j].pos })
		for _, c := range closers {
			pass.Reportf(c.pos, "channel %s is closed in %d functions (%s); a shared channel needs exactly one owning closer",
				key, len(names), strings.Join(names, ", "))
		}
	}
}

// checkRacyCloseGuard flags a close guarded by a receive on the same channel
// in a sibling clause of one select.
func checkRacyCloseGuard(pass *framework.ProgramPass, pkg *framework.Package, fd *ast.FuncDecl) {
	info := pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		// Keys received by each clause, indexed by clause.
		recvKeys := make([]map[string]bool, len(sel.Body.List))
		for i, cl := range sel.Body.List {
			comm := cl.(*ast.CommClause)
			recvKeys[i] = make(map[string]bool)
			if comm.Comm == nil {
				continue
			}
			ast.Inspect(comm.Comm, func(m ast.Node) bool {
				if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					if key, ok := dataflow.ObjKey(info, u.X); ok {
						recvKeys[i][key] = true
					}
				}
				return true
			})
		}
		for i, cl := range sel.Body.List {
			comm := cl.(*ast.CommClause)
			for _, s := range comm.Body {
				ast.Inspect(s, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 || !dataflow.IsBuiltin(info, call, "close") {
						return true
					}
					key, ok := dataflow.ObjKey(info, call.Args[0])
					if !ok {
						return true
					}
					for j, keys := range recvKeys {
						if j != i && keys[key] {
							pass.Reportf(call.Pos(),
								"racy idempotent close of %s: between the sibling case's receive and this close, a concurrent caller can close first and this close panics; serialize through sync.Once",
								dataflow.DisplayName(info, pass.Fset, call.Args[0]))
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// closeFact is the must-closed lattice: the set of channel keys closed on
// every path into a point. Join is set intersection.
type closeFact map[string]bool

func joinClose(a, b closeFact) closeFact {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make(closeFact, len(a))
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func equalClose(a, b closeFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkClosePaths runs the must-closed analysis over fd's CFG and reports
// closes-after-close and sends-after-close. Deferred closes are ignored for
// state (they run at exit), and the check replays transfer functions over
// the converged block-entry facts so each site reports at most once.
func checkClosePaths(pass *framework.ProgramPass, pkg *framework.Package, fd *ast.FuncDecl) {
	info := pkg.TypesInfo
	cfg := dataflow.Build(fd)
	if cfg == nil {
		return
	}
	transfer := func(f closeFact, s ast.Stmt, report bool) closeFact {
		if _, isDefer := s.(*ast.DeferStmt); isDefer {
			return f
		}
		// A close nested in a function literal or go/defer statement executes
		// at some other time; skip those subtrees entirely — they are
		// conservative no-ops for the must-closed state.
		dataflow.InspectStmt(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.SendStmt:
				if key, ok := dataflow.ObjKey(info, n.Chan); ok && f[key] {
					if report {
						pass.Reportf(n.Pos(), "send on %s after it is closed on every path reaching here; sending on a closed channel panics",
							dataflow.DisplayName(info, pass.Fset, n.Chan))
					}
				}
			case *ast.CallExpr:
				if len(n.Args) == 1 && dataflow.IsBuiltin(info, n, "close") {
					if key, ok := dataflow.ObjKey(info, n.Args[0]); ok {
						if f[key] && report {
							pass.Reportf(n.Pos(), "%s is already closed on every path reaching this second close; closing a closed channel panics",
								dataflow.DisplayName(info, pass.Fset, n.Args[0]))
						}
						f = withKey(f, key)
					}
				}
			}
			return true
		})
		return f
	}
	facts := dataflow.Forward(cfg, dataflow.Flow[closeFact]{
		Entry:    closeFact{},
		Join:     joinClose,
		Equal:    equalClose,
		Transfer: func(f closeFact, s ast.Stmt) closeFact { return transfer(f, s, false) },
	})
	seen := make(map[*dataflow.Block]bool)
	for _, b := range cfg.Reachable() {
		if seen[b] {
			continue
		}
		seen[b] = true
		f, ok := facts[b]
		if !ok {
			continue
		}
		for _, s := range b.Stmts {
			f = transfer(f, s, true)
		}
	}
}

func withKey(f closeFact, key string) closeFact {
	if f[key] {
		return f
	}
	out := make(closeFact, len(f)+1)
	for k := range f {
		out[k] = true
	}
	out[key] = true
	return out
}

// checkRangeNeverClosed flags `for range ch` over a function-local channel
// that nothing in the program closes and that never escapes the function —
// the loop can only end by blocking forever.
func checkRangeNeverClosed(pass *framework.ProgramPass, pkg *framework.Package, fd *ast.FuncDecl, closedAnywhere map[string]bool) {
	info := pkg.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return true
		}
		id, ok := ast.Unparen(rng.X).(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true // fields and globals: goroutinelife owns parked workers
		}
		key, ok := dataflow.ObjKey(info, rng.X)
		if !ok || closedAnywhere[key] {
			return true
		}
		if escapes(info, fd, v) {
			return true
		}
		pass.Reportf(rng.Pos(), "ranging over %s blocks forever: nothing closes it and it never escapes %s; close it when the producer is done",
			v.Name(), fd.Name.Name)
		return true
	})
}

// escapes reports whether the local channel v is used anywhere beyond the
// operations the analysis models (make/assign, send, receive, range, close,
// len/cap). Passing it to a call, returning it, storing it in a structure or
// capturing its address all count as escapes.
func escapes(info *types.Info, fd *ast.FuncDecl, v *types.Var) bool {
	escaped := false
	framework.WalkStackNode(fd.Body, func(n ast.Node, stack []ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok || escaped {
			return
		}
		if info.Uses[id] != v && info.Defs[id] != v {
			return
		}
		if len(stack) == 0 {
			return
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.SendStmt:
			if parent.Chan == ast.Expr(id) {
				return
			}
			escaped = true
		case *ast.UnaryExpr:
			if parent.Op == token.ARROW {
				return
			}
			escaped = true
		case *ast.RangeStmt:
			if parent.X == ast.Expr(id) {
				return
			}
			escaped = true
		case *ast.CallExpr:
			if dataflow.IsBuiltin(info, parent, "close") ||
				dataflow.IsBuiltin(info, parent, "len") || dataflow.IsBuiltin(info, parent, "cap") {
				return
			}
			escaped = true
		case *ast.AssignStmt:
			// Appearing on the LHS (the make) is fine; as an RHS value it
			// aliases into another variable — escape.
			for _, lhs := range parent.Lhs {
				if lhs == ast.Expr(id) {
					return
				}
			}
			escaped = true
		case *ast.ValueSpec:
			return
		default:
			escaped = true
		}
	})
	return escaped
}
