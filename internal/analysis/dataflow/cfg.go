// Package dataflow is the function-body analysis engine under recclint's
// lockorder analyzer and the v3 concurrency analyzers. It builds
// intra-function control-flow graphs from go/ast, runs forward dataflow to a
// fixed point over small lattices (lock sets), and resolves static callees
// across every package the framework loader produced, so analyzers get
// one-level interprocedural summaries without any code generation or SSA.
//
// The engine is deliberately conservative: anything it cannot model precisely
// (interface dispatch, aliasing through closures, reflection) degrades toward
// "no finding", never toward a false positive — recclint gates CI, so every
// report must be actionable.
package dataflow

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"strings"
)

// A Block is one basic block: a maximal straight-line statement sequence.
// Conditions appear as synthetic ast.ExprStmt entries at the end of the block
// that branches on them, so analyzers see every expression exactly once.
type Block struct {
	ID    int
	Stmts []ast.Stmt
	Succs []*Block
}

// A CFG is the control-flow graph of one function body. Blocks[0] is the
// entry; Exit is a synthetic empty block reached by every return and by
// falling off the end of the body. Statements that cannot complete normally
// (panic, os.Exit, log.Fatal*) terminate their block with no successor, so
// "open at exit" style analyses do not count crash paths.
type CFG struct {
	Blocks []*Block
	Exit   *Block
	// Defers lists every defer statement in the body, in source order. The
	// engine approximates defer semantics as "runs at every exit reachable
	// after registration", which transfer functions model at the statement.
	Defers []*ast.DeferStmt
	// Spawns lists every go statement in the body, in source order. A spawn
	// is a control-flow edge into a concurrently executing body: the spawned
	// function starts at the statement but joins the spawner (if ever) only
	// through a channel, WaitGroup or context — which is exactly what the
	// concurrency analyzers (goroutinelife, wgbalance) check.
	Spawns []*ast.GoStmt
}

type loopScope struct {
	breakTo    *Block
	continueTo *Block
}

type builder struct {
	cfg   *CFG
	cur   *Block
	loops []loopScope // innermost last; switch/select push break-only scopes

	labels       map[string]*labelInfo
	pendingLabel string // label naming the next loop/switch/select built
}

type labelInfo struct {
	start      *Block // block the labeled statement begins in (goto target)
	breakTo    *Block
	continueTo *Block
}

// InspectStmt is ast.Inspect made safe for statements coming out of a CFG
// block: range-loop headers appear there as shallow RangeStmt copies with a
// nil Body (see the builder), which plain ast.Inspect cannot walk. Transfer
// functions that re-inspect block statements must use this instead.
func InspectStmt(s ast.Stmt, fn func(ast.Node) bool) {
	if r, ok := s.(*ast.RangeStmt); ok && r.Body == nil {
		if !fn(r) {
			return
		}
		for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
			if e != nil {
				ast.Inspect(e, fn)
			}
		}
		return
	}
	ast.Inspect(s, fn)
}

// Build constructs the CFG of fn's body. Returns nil for bodiless functions
// (declarations without bodies, e.g. assembly stubs).
func Build(fn *ast.FuncDecl) *CFG {
	if fn == nil || fn.Body == nil {
		return nil
	}
	return BuildBody(fn.Body)
}

// BuildBody constructs the CFG of an arbitrary function body (used for both
// declared functions and function literals).
func BuildBody(body *ast.BlockStmt) *CFG {
	b := &builder{
		cfg:    &CFG{},
		labels: make(map[string]*labelInfo),
	}
	entry := b.newBlock()
	b.cfg.Exit = &Block{ID: -1} // renumbered below
	b.cur = entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	b.cfg.Exit.ID = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// jump seals the current block with an edge to target and opens a fresh,
// unreachable block for any statements that follow the jump.
func (b *builder) jump(target *Block) {
	b.edge(b.cur, target)
	b.cur = b.newBlock()
}

// terminate seals the current block with no successor (panic/os.Exit paths).
func (b *builder) terminate() {
	b.cur = b.newBlock()
}

func (b *builder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{start: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

// takePendingLabel binds break/continue targets for a labeled loop or switch.
func (b *builder) takePendingLabel(breakTo, continueTo *Block) {
	if b.pendingLabel == "" {
		return
	}
	li := b.labels[b.pendingLabel]
	li.breakTo = breakTo
	li.continueTo = continueTo
	b.pendingLabel = ""
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// condStmt wraps a branch condition as a synthetic statement so transfer
// functions visit its sub-expressions.
func condStmt(e ast.Expr) ast.Stmt { return &ast.ExprStmt{X: e} }

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.edge(b.cur, li.start)
		b.cur = li.start
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, condStmt(s.Cond))
		cond := b.cur
		after := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, after)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, after)
		} else {
			b.edge(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Stmts = append(head.Stmts, condStmt(s.Cond))
		}
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
			post.Stmts = append(post.Stmts, s.Post)
			b.edge(post, head)
		}
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		b.takePendingLabel(after, post)
		b.loops = append(b.loops, loopScope{breakTo: after, continueTo: post})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, post)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.edge(b.cur, head)
		// A shallow copy without the body stands in for the per-iteration
		// assignment, so analyzers see Key/Value/X exactly once.
		hdr := *s
		hdr.Body = nil
		head.Stmts = append(head.Stmts, &hdr)
		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		b.takePendingLabel(after, head)
		b.loops = append(b.loops, loopScope{breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt:
		b.buildSwitch(s.Init, s.Tag, nil, s.Body, true)

	case *ast.TypeSwitchStmt:
		b.buildSwitch(s.Init, nil, s.Assign, s.Body, false)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.takePendingLabel(after, nil)
		b.loops = append(b.loops, loopScope{breakTo: after})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.cur.Stmts = append(b.cur.Stmts, comm.Comm)
			}
			b.stmtList(comm.Body)
			b.edge(b.cur, after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select with no cases blocks forever: after stays unreachable.
		b.cur = after

	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				b.jump(b.labels[s.Label.Name].breakTo)
			} else {
				b.jump(b.innermostBreak())
			}
		case token.CONTINUE:
			if s.Label != nil {
				b.jump(b.labels[s.Label.Name].continueTo)
			} else {
				b.jump(b.innermostContinue())
			}
		case token.GOTO:
			b.jump(b.label(s.Label.Name).start)
		case token.FALLTHROUGH:
			// Handled by buildSwitch, which links the clause blocks; the
			// statement itself is recorded above for completeness.
		}

	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.jump(b.cfg.Exit)

	case *ast.DeferStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.GoStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.cfg.Spawns = append(b.cfg.Spawns, s)

	default:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if terminates(s) {
			b.terminate()
		}
	}
}

// buildSwitch handles both expression and type switches. tagged reports
// whether fallthrough is legal (expression switches only).
func (b *builder) buildSwitch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt, tagged bool) {
	if init != nil {
		b.cur.Stmts = append(b.cur.Stmts, init)
	}
	if tag != nil {
		b.cur.Stmts = append(b.cur.Stmts, condStmt(tag))
	}
	if assign != nil {
		b.cur.Stmts = append(b.cur.Stmts, assign)
	}
	head := b.cur
	after := b.newBlock()
	b.takePendingLabel(after, nil)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if c.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.loops = append(b.loops, loopScope{breakTo: after})
	for i, c := range clauses {
		b.cur = blocks[i]
		falls := false
		for _, s := range c.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && tagged {
				falls = true
			}
			b.stmt(s)
		}
		if falls && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
		} else {
			b.edge(b.cur, after)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *builder) innermostBreak() *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].breakTo != nil {
			return b.loops[i].breakTo
		}
	}
	return b.cfg.Exit // malformed code; be lenient
}

func (b *builder) innermostContinue() *Block {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].continueTo != nil {
			return b.loops[i].continueTo
		}
	}
	return b.cfg.Exit
}

// terminates reports whether s is a statement that never completes normally:
// a call to panic, os.Exit, or log.Fatal*/log.Panic*.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		name := fun.Sel.Name
		return (pkg.Name == "os" && name == "Exit") ||
			(pkg.Name == "log" && (strings.HasPrefix(name, "Fatal") || strings.HasPrefix(name, "Panic")))
	}
	return false
}

// Reachable returns the blocks reachable from the entry, in a deterministic
// order (by block ID). Jump targets leave dead blocks behind; analyses skip
// them so unreachable code cannot produce findings.
func (c *CFG) Reachable() []*Block {
	seen := make(map[*Block]bool, len(c.Blocks))
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(c.Blocks) > 0 {
		walk(c.Blocks[0])
	}
	var out []*Block
	for _, b := range c.Blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// String renders the CFG for golden tests: one line per reachable block,
// statements abbreviated, successors by ID.
func (c *CFG) String(fset *token.FileSet) string {
	var sb strings.Builder
	for _, b := range c.Reachable() {
		if b == c.Exit {
			fmt.Fprintf(&sb, "b%d: exit\n", b.ID)
			continue
		}
		parts := make([]string, len(b.Stmts))
		for i, s := range b.Stmts {
			parts[i] = renderStmt(fset, s)
		}
		fmt.Fprintf(&sb, "b%d: [%s] ->", b.ID, strings.Join(parts, "; "))
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.ID)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func renderStmt(fset *token.FileSet, s ast.Stmt) string {
	if r, ok := s.(*ast.RangeStmt); ok && r.Body == nil {
		return "range " + renderExpr(fset, r.X)
	}
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, s); err != nil {
		return fmt.Sprintf("<%T>", s)
	}
	line := strings.Join(strings.Fields(buf.String()), " ")
	if len(line) > 60 {
		line = line[:57] + "..."
	}
	return line
}

func renderExpr(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return fmt.Sprintf("<%T>", e)
	}
	return buf.String()
}
