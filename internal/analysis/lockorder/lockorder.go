// Package lockorder implements the recclint deadlock check: a global
// lock-acquisition-order graph built across every package the loader
// produced. Each function is run through a forward must-hold dataflow over
// its CFG (join = intersection: a lock counts as held at a confluence only
// when every path holds it), and acquiring lock B while holding lock A
// records the observed edge A -> B. Calls into functions whose source is in
// the program contribute one-level summary edges: the locks the callee
// acquires directly, observed at the call site. Any cycle in the combined
// graph of observed and declared edges is a potential deadlock — two
// goroutines taking the loop from opposite ends block each other forever,
// which is precisely the failure mode the RCU lifecycle exists to avoid.
//
// Intended order is declared per file with
//
//	//recclint:lockrank pkg.Outer.mu < pkg.Inner.mu
//
// and an observed edge contradicting the declared (transitive) order gets a
// targeted finding even before it closes a cycle. The v1 //recclint:holds
// directive composes: a method documented as running under its receiver's
// mutex seeds the entry lock set, so helpers called with locks held still
// contribute their edges.
//
// Lock identity is canonical and type-based — pkg.Type.field for a mutex
// field, pkg.var for a package-level mutex, pkg.Type.Mutex for an embedded
// one. Locks the analyzer cannot name (locals, mutexes reached through
// interfaces) do not participate: silence, not noise.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"resistecc/internal/analysis/dataflow"
	"resistecc/internal/analysis/framework"
)

const (
	rankDirective  = "//recclint:lockrank"
	holdsDirective = "//recclint:holds"
)

// Analyzer is the lockorder check. It runs over the whole program: lock
// cycles are global properties, never visible to one package alone.
var Analyzer = &framework.Analyzer{
	Name:       "lockorder",
	Doc:        "global lock-acquisition-order graph must stay acyclic; declare intended order with //recclint:lockrank",
	RunProgram: runProgram,
}

type edge struct{ from, to string }

type checker struct {
	pass      *framework.ProgramPass
	prog      *dataflow.Program
	observed  map[edge]token.Pos // lexically first acquisition site
	declared  map[edge]token.Pos // lockrank directive position
	summaries map[string][]string
}

func runProgram(pass *framework.ProgramPass) error {
	c := &checker{
		pass:      pass,
		prog:      dataflow.BuildProgram(pass.Pkgs),
		observed:  make(map[edge]token.Pos),
		declared:  make(map[edge]token.Pos),
		summaries: make(map[string][]string),
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			c.collectDeclared(file)
		}
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					c.checkFunc(pkg, fd)
				}
			}
		}
	}
	c.reportContradictions()
	c.reportCycles()
	return nil
}

// collectDeclared parses //recclint:lockrank directives anywhere in the file.
func (c *checker) collectDeclared(file *ast.File) {
	for _, cg := range file.Comments {
		for _, cmt := range cg.List {
			text := strings.TrimSpace(cmt.Text)
			if !strings.HasPrefix(text, rankDirective) {
				continue
			}
			parts := strings.Split(strings.TrimPrefix(text, rankDirective), "<")
			var names []string
			for _, p := range parts {
				if p = strings.TrimSpace(p); p != "" {
					names = append(names, p)
				}
			}
			if len(names) < 2 {
				c.pass.Reportf(cmt.Pos(), "recclint:lockrank needs at least two lock names: %s a < b", rankDirective)
				continue
			}
			for i := 0; i+1 < len(names); i++ {
				e := edge{names[i], names[i+1]}
				if _, ok := c.declared[e]; !ok {
					c.declared[e] = cmt.Pos()
				}
			}
		}
	}
}

type funcScope struct {
	c    *checker
	pkg  *framework.Package
	info *types.Info
}

func (c *checker) checkFunc(pkg *framework.Package, fd *ast.FuncDecl) {
	cfg := dataflow.Build(fd)
	if cfg == nil {
		return
	}
	fs := &funcScope{c: c, pkg: pkg, info: pkg.TypesInfo}
	entry := dataflow.LockSet{}
	if held := c.heldAtEntry(pkg, fd); held != "" {
		entry = entry.With(held)
	}
	dataflow.Forward(cfg, dataflow.Flow[dataflow.LockSet]{
		Entry:    entry,
		Join:     dataflow.JoinLockSets,
		Equal:    dataflow.EqualLockSets,
		Transfer: fs.transfer,
	})
}

// heldAtEntry resolves a //recclint:holds <mu> doc directive to the canonical
// name of the receiver's mutex field.
func (c *checker) heldAtEntry(pkg *framework.Package, fd *ast.FuncDecl) string {
	field := framework.FuncDirectiveArg(fd.Doc, holdsDirective)
	if field == "" || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := pkg.TypesInfo.Types[fd.Recv.List[0].Type].Type
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return qual(named) + "." + field
}

// transfer walks one CFG statement, recording acquisition edges and updating
// the must-hold set. Deferred unlocks keep the lock held until return, so a
// defer statement deliberately contributes nothing.
func (fs *funcScope) transfer(f dataflow.LockSet, s ast.Stmt) dataflow.LockSet {
	switch s := s.(type) {
	case *ast.DeferStmt:
		return f
	case *ast.RangeStmt:
		if s.Body == nil {
			// Synthetic CFG loop header: only the ranged expression is live
			// (walking the nil body would crash ast.Inspect).
			if s.X == nil {
				return f
			}
			hdr := &ast.ExprStmt{X: s.X}
			return fs.transfer(f, hdr)
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's locks are taken when it runs, not here
		case *ast.CallExpr:
			if name, op, ok := fs.lockOp(n); ok {
				switch op {
				case opAcquire:
					for _, held := range f.Names() {
						if held != name {
							fs.c.observe(held, name, n.Pos())
						}
					}
					f = f.With(name)
				case opRelease:
					f = f.Without(name)
				}
				return false
			}
			// One-level summary: locks the callee acquires directly become
			// edges from everything held at this call site.
			if len(f) > 0 {
				if callee := fs.c.prog.ResolvedCallee(fs.info, n); callee != nil {
					for _, acquired := range fs.c.acquires(callee) {
						for _, held := range f.Names() {
							if held != acquired {
								fs.c.observe(held, acquired, n.Pos())
							}
						}
					}
				}
			}
		}
		return true
	})
	return f
}

func (c *checker) observe(from, to string, pos token.Pos) {
	e := edge{from, to}
	if prev, ok := c.observed[e]; !ok || pos < prev {
		c.observed[e] = pos
	}
}

type lockOpKind int

const (
	opAcquire lockOpKind = iota
	opRelease
)

// lockOp recognizes a call as a sync mutex operation and names the lock.
func (fs *funcScope) lockOp(call *ast.CallExpr) (string, lockOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return "", 0, false
	}
	selection, ok := fs.info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", 0, false
	}
	m, ok := selection.Obj().(*types.Func)
	if !ok || m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return "", 0, false
	}
	name := fs.lockName(sel.X)
	if name == "" {
		return "", 0, false
	}
	return name, op, true
}

// lockName canonicalizes the expression the mutex method was selected from.
func (fs *funcScope) lockName(x ast.Expr) string {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		// base.mu: name by the *type* of base, so every instance of the
		// struct shares one graph node.
		t := fs.info.Types[x.X].Type
		if t == nil {
			return ""
		}
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return qual(named) + "." + x.Sel.Name
		}
		return ""
	case *ast.Ident:
		obj, ok := fs.info.ObjectOf(x).(*types.Var)
		if !ok {
			return ""
		}
		t := obj.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
			// A plain sync.Mutex value: package-level vars are nameable,
			// locals are not (each instance is its own lock).
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return ""
		}
		// Receiver or variable with an embedded mutex: m.Lock().
		return qual(named) + ".Mutex"
	}
	return ""
}

func qual(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// acquires returns the canonical names of locks fn acquires directly,
// memoized; closures are excluded (they run later).
func (c *checker) acquires(fn *dataflow.FuncInfo) []string {
	key := fn.Obj.FullName()
	if names, ok := c.summaries[key]; ok {
		return names
	}
	c.summaries[key] = nil // break recursion cycles
	fs := &funcScope{c: c, pkg: fn.Pkg, info: fn.Pkg.TypesInfo}
	set := make(map[string]bool)
	if fn.Decl.Body != nil {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if name, op, ok := fs.lockOp(n); ok && op == opAcquire {
					set[name] = true
					return false
				}
			}
			return true
		})
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	c.summaries[key] = names
	return names
}

// reportContradictions flags observed edges that invert the declared
// transitive order, and removes them from the graph so the generic cycle
// report does not double-count them.
func (c *checker) reportContradictions() {
	reach := transitive(c.declared)
	for _, e := range sortedEdges(c.observed) {
		// Observed from->to means "from before to"; contradiction when the
		// declaration orders to before from.
		if reach[e.to][e.from] {
			c.pass.Reportf(c.observed[e],
				"acquiring %s while holding %s contradicts the declared lock order (%s %s < %s)",
				e.to, e.from, rankDirective, e.to, e.from)
			delete(c.observed, e)
		}
	}
}

// reportCycles finds strongly connected components of the combined graph and
// reports each once, at the lexically first edge inside it.
func (c *checker) reportCycles() {
	adj := make(map[string]map[string]token.Pos)
	add := func(e edge, pos token.Pos) {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]token.Pos)
		}
		if prev, ok := adj[e.from][e.to]; !ok || pos < prev {
			adj[e.from][e.to] = pos
		}
	}
	for e, pos := range c.declared {
		add(e, pos)
	}
	for e, pos := range c.observed {
		add(e, pos)
	}
	for _, scc := range sccs(adj) {
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var pos token.Pos
		selfLoop := false
		for _, from := range scc {
			for to, p := range adj[from] {
				if !inSCC[to] {
					continue
				}
				if from == to {
					selfLoop = true
				}
				if pos == token.NoPos || p < pos {
					pos = p
				}
			}
		}
		if len(scc) < 2 && !selfLoop {
			continue
		}
		sorted := append([]string(nil), scc...)
		sort.Strings(sorted)
		c.pass.Reportf(pos, "lock acquisition order cycle among %s (potential deadlock)",
			strings.Join(sorted, ", "))
	}
}

// transitive computes reachability over the declared edges.
func transitive(edges map[edge]token.Pos) map[string]map[string]bool {
	succ := make(map[string][]string)
	for e := range edges {
		succ[e.from] = append(succ[e.from], e.to)
	}
	reach := make(map[string]map[string]bool)
	for from := range succ {
		seen := make(map[string]bool)
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, next := range succ[n] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		reach[from] = seen
	}
	return reach
}

func sortedEdges(m map[edge]token.Pos) []edge {
	out := make([]edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// sccs returns the strongly connected components of adj (Kosaraju, with
// sorted iteration everywhere for deterministic output).
func sccs(adj map[string]map[string]token.Pos) [][]string {
	nodes := make(map[string]bool)
	rev := make(map[string][]string)
	for from, tos := range adj {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
			rev[to] = append(rev[to], from)
		}
	}
	order := make([]string, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)

	seen := make(map[string]bool)
	var finish []string
	var dfs1 func(string)
	dfs1 = func(n string) {
		seen[n] = true
		var tos []string
		for to := range adj[n] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !seen[to] {
				dfs1(to)
			}
		}
		finish = append(finish, n)
	}
	for _, n := range order {
		if !seen[n] {
			dfs1(n)
		}
	}

	comp := make(map[string]int)
	var out [][]string
	var dfs2 func(string, int)
	dfs2 = func(n string, id int) {
		comp[n] = id
		out[id] = append(out[id], n)
		tos := append([]string(nil), rev[n]...)
		sort.Strings(tos)
		for _, to := range tos {
			if _, ok := comp[to]; !ok {
				dfs2(to, id)
			}
		}
	}
	for i := len(finish) - 1; i >= 0; i-- {
		if _, ok := comp[finish[i]]; !ok {
			out = append(out, nil)
			dfs2(finish[i], len(out)-1)
		}
	}
	return out
}
