// Package apisurface enforces the HTTP envelope and route-surface discipline
// of the serving tier. It activates only on packages that opt in — by
// declaring an envelope function (//recclint:envelope on its doc comment), by
// pinning a routes manifest (//recclint:routes <file> anywhere in a file), or
// by a bare //recclint:apisurface file directive — and then checks:
//
//   - no http.Error: every error response must carry the structured
//     {"error":{code,message}} envelope, which http.Error cannot produce;
//   - no naked WriteHeader on error statuses: only the envelope function may
//     write a 4xx/5xx header. Delegation through an embedded
//     http.ResponseWriter (x.ResponseWriter.WriteHeader(...)) is exempt —
//     that is how middleware wrappers forward, not how handlers respond;
//   - envelope call sites with a constant 4xx/5xx status must pass a body
//     whose type carries a field tagged json:"error", so non-2xx responses
//     are envelope-shaped by construction;
//   - the registered route surface matches the manifest: the set of
//     "METHOD /path" pattern constants in each registrar function equals the
//     manifest rows for that registrar's roles, manifest rows are
//     well-formed and duplicate-free, and every route marked
//     "generation": true names a handler that reaches a //recclint:genstamp
//     function (the X-Index-Generation stamp) through package-local calls.
package apisurface

import (
	"encoding/json"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"

	"resistecc/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "apisurface",
	Doc:  "HTTP surface discipline: enveloped error paths, no naked 4xx/5xx WriteHeader, route set matches the routes manifest, generation-stamped handlers",
	Run:  run,
}

const (
	surfaceDirective  = "//recclint:apisurface"
	routesDirective   = "//recclint:routes"
	envelopeDirective = "//recclint:envelope"
	genstampDirective = "//recclint:genstamp"
)

// patternRe matches the "METHOD /path" mux-registration literals the route
// collection keys on.
var patternRe = regexp.MustCompile(`^(GET|POST|PUT|DELETE|PATCH|HEAD) /`)

var validMethods = map[string]bool{
	"GET": true, "POST": true, "PUT": true, "DELETE": true, "PATCH": true, "HEAD": true,
}

func run(pass *framework.Pass) error {
	info := collect(pass)
	if !info.active {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, info, fd)
		}
	}
	if info.routesFile != "" {
		checkRoutes(pass, info)
	}
	return nil
}

// pkgInfo is everything collect gathers in one sweep over the package.
type pkgInfo struct {
	active     bool
	routesFile string    // absolute manifest path; "" when no routes directive
	routesPos  token.Pos // the directive comment, anchor for manifest errors

	envelope map[*types.Func]bool // //recclint:envelope functions
	genstamp map[*types.Func]bool // //recclint:genstamp functions
	decls    map[*types.Func]*ast.FuncDecl
	byKey    map[string]*types.Func        // "recvType.name" or "name" → func
	calls    map[*types.Func][]*types.Func // package-local static call graph
}

func collect(pass *framework.Pass) *pkgInfo {
	info := &pkgInfo{
		envelope: make(map[*types.Func]bool),
		genstamp: make(map[*types.Func]bool),
		decls:    make(map[*types.Func]*ast.FuncDecl),
		byKey:    make(map[string]*types.Func),
	}
	for _, f := range pass.Files {
		if framework.HasFileDirective(f, surfaceDirective) {
			info.active = true
		}
		if arg, pos := fileDirectiveArg(f, routesDirective); arg != "" {
			info.active = true
			dir := filepath.Dir(pass.Fset.Position(f.Pos()).Filename)
			info.routesFile = filepath.Join(dir, arg)
			info.routesPos = pos
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info.decls[obj] = fd
			info.byKey[funcKey(fd)] = obj
			if hasDocDirective(fd.Doc, envelopeDirective) {
				info.envelope[obj] = true
				info.active = true
			}
			if hasDocDirective(fd.Doc, genstampDirective) {
				info.genstamp[obj] = true
			}
		}
	}
	if !info.active {
		return info
	}
	// Package-local static call graph, for genstamp reachability.
	info.calls = make(map[*types.Func][]*types.Func)
	for obj, fd := range info.decls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass, call); callee != nil && callee.Pkg() == pass.Pkg {
				info.calls[obj] = append(info.calls[obj], callee)
			}
			return true
		})
	}
	return info
}

// checkBody applies the per-statement rules (R1 http.Error, R2 WriteHeader,
// R3 envelope-shaped error bodies) to one function.
func checkBody(pass *framework.Pass, info *pkgInfo, fd *ast.FuncDecl) {
	obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	inEnvelope := obj != nil && info.envelope[obj]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		// R1: http.Error writes text/plain with no envelope.
		if callee.Pkg() != nil && callee.Pkg().Path() == "net/http" && callee.Name() == "Error" {
			pass.Reportf(call.Pos(),
				"http.Error bypasses the error envelope: use the package's //recclint:envelope helper")
			return true
		}
		// R2: WriteHeader outside the envelope layer.
		if callee.Name() == "WriteHeader" && len(call.Args) == 1 && !inEnvelope {
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				checkWriteHeader(pass, call)
			}
			return true
		}
		// R3: envelope calls with a constant error status need an
		// envelope-shaped body type.
		if callee.Pkg() == pass.Pkg && info.envelope[callee] {
			checkEnvelopeCall(pass, call, callee)
		}
		return true
	})
}

func checkWriteHeader(pass *framework.Pass, call *ast.CallExpr) {
	// x.ResponseWriter.WriteHeader(...) is a wrapper forwarding to its
	// embedded writer — the middleware idiom, not a response decision.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && inner.Sel.Name == "ResponseWriter" {
			return
		}
	}
	if tv, ok := pass.TypesInfo.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		status, _ := constant.Int64Val(tv.Value)
		if status < 400 {
			return
		}
		pass.Reportf(call.Pos(),
			"naked WriteHeader(%d): error statuses must go through the //recclint:envelope helper", status)
		return
	}
	pass.Reportf(call.Pos(),
		"WriteHeader with a non-constant status outside the envelope layer: route the response through the //recclint:envelope helper")
}

func checkEnvelopeCall(pass *framework.Pass, call *ast.CallExpr, callee *types.Func) {
	statusIdx, bodyIdx := envelopeParams(callee)
	if statusIdx < 0 || bodyIdx < 0 || len(call.Args) <= bodyIdx || len(call.Args) <= statusIdx {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[statusIdx]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return
	}
	status, _ := constant.Int64Val(tv.Value)
	if status < 400 || status >= 600 {
		return
	}
	bt := pass.TypesInfo.Types[call.Args[bodyIdx]].Type
	if !carriesEnvelope(bt) {
		pass.Reportf(call.Args[bodyIdx].Pos(),
			"status %d body type %s does not carry the error envelope (no struct field tagged json:\"error\")",
			status, types.TypeString(bt, types.RelativeTo(pass.Pkg)))
	}
}

// envelopeParams locates the status (first int) and body (first non-variadic
// any) parameters of an envelope function. Either may be absent (-1): a
// helper like WriteError builds the envelope itself and has no body to check.
func envelopeParams(fn *types.Func) (statusIdx, bodyIdx int) {
	statusIdx, bodyIdx = -1, -1
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
	}
	for i := 0; i < n; i++ {
		t := params.At(i).Type()
		if b, ok := t.(*types.Basic); ok && b.Kind() == types.Int && statusIdx < 0 {
			statusIdx = i
		}
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.Empty() && bodyIdx < 0 {
			bodyIdx = i
		}
	}
	return
}

// carriesEnvelope reports whether t (after pointer derefs) is a struct with a
// field whose json tag names "error" — the shape clients parse error details
// out of.
func carriesEnvelope(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if name, _, _ := strings.Cut(tag, ","); name == "error" {
			return true
		}
	}
	return false
}

// --- routes manifest ---

type routeRow struct {
	Method     string   `json:"method"`
	Path       string   `json:"path"`
	Roles      []string `json:"roles"`
	Handler    string   `json:"handler"`
	Generation bool     `json:"generation"`
}

type manifest struct {
	Registrars map[string][]string `json:"registrars"`
	Routes     []routeRow          `json:"routes"`
}

func checkRoutes(pass *framework.Pass, info *pkgInfo) {
	data, err := os.ReadFile(info.routesFile)
	if err != nil {
		pass.Reportf(info.routesPos, "routes manifest: %v", err)
		return
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		pass.Reportf(info.routesPos, "routes manifest %s: %v", filepath.Base(info.routesFile), err)
		return
	}
	if len(m.Registrars) == 0 {
		pass.Reportf(info.routesPos, "routes manifest %s declares no registrars", filepath.Base(info.routesFile))
		return
	}

	// Registrars must resolve to functions in this package; collect the role
	// universe while we're at it.
	knownRoles := make(map[string]bool)
	registrars := make([]string, 0, len(m.Registrars))
	for key := range m.Registrars {
		registrars = append(registrars, key)
	}
	sort.Strings(registrars)
	ok := true
	for _, key := range registrars {
		if _, found := info.byKey[key]; !found {
			pass.Reportf(info.routesPos,
				"routes manifest names registrar %q: no such function in this package", key)
			ok = false
		}
		for _, role := range m.Registrars[key] {
			knownRoles[role] = true
		}
	}

	// Row validation: shape, role universe, duplicates.
	seen := make(map[string]int) // "role METHOD path" → first row index
	for i, r := range m.Routes {
		switch {
		case !validMethods[r.Method]:
			pass.Reportf(info.routesPos, "routes manifest row %d: invalid method %q", i, r.Method)
			ok = false
		case !strings.HasPrefix(r.Path, "/"):
			pass.Reportf(info.routesPos, "routes manifest row %d: path %q does not start with /", i, r.Path)
			ok = false
		case len(r.Roles) == 0:
			pass.Reportf(info.routesPos, "routes manifest row %d: %s %s has no roles", i, r.Method, r.Path)
			ok = false
		}
		for _, role := range r.Roles {
			if !knownRoles[role] {
				pass.Reportf(info.routesPos,
					"routes manifest row %d: role %q does not belong to any registrar", i, role)
				ok = false
				continue
			}
			k := role + " " + r.Method + " " + r.Path
			if first, dup := seen[k]; dup {
				pass.Reportf(info.routesPos,
					"routes manifest row %d: duplicate route %s %s for role %q (first at row %d)",
					i, r.Method, r.Path, role, first)
				ok = false
			} else {
				seen[k] = i
			}
		}
	}
	if !ok {
		return // cross-checks against a broken manifest would only add noise
	}

	for _, key := range registrars {
		checkRegistrar(pass, info, key, m.Registrars[key], m.Routes)
	}
}

// checkRegistrar compares the "METHOD /path" constants registered inside one
// registrar function against the manifest rows for its roles, and walks
// generation-marked handlers to a genstamp function.
func checkRegistrar(pass *framework.Pass, info *pkgInfo, key string, roles []string, rows []routeRow) {
	fn := info.byKey[key]
	fd := info.decls[fn]
	if fd.Body == nil {
		return
	}
	roleSet := make(map[string]bool, len(roles))
	for _, r := range roles {
		roleSet[r] = true
	}
	mine := func(r routeRow) bool {
		for _, role := range r.Roles {
			if roleSet[role] {
				return true
			}
		}
		return false
	}

	// Registered side: every constant string in the body shaped like a mux
	// pattern. Derived (non-constant) patterns are invisible.
	registered := make(map[string]token.Pos)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[expr]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true
		}
		if s := constant.StringVal(tv.Value); patternRe.MatchString(s) {
			if _, dup := registered[s]; !dup {
				registered[s] = expr.Pos()
			}
		}
		return true
	})

	expected := make(map[string]routeRow)
	for _, r := range rows {
		if mine(r) {
			expected[r.Method+" "+r.Path] = r
		}
	}

	var missing, extra []string
	for pat := range expected {
		if _, found := registered[pat]; !found {
			missing = append(missing, pat)
		}
	}
	for pat := range registered {
		if _, found := expected[pat]; !found {
			extra = append(extra, pat)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, pat := range missing {
		pass.Reportf(fd.Name.Pos(),
			"route %q is in the routes manifest but not registered by %s", pat, key)
	}
	for _, pat := range extra {
		pass.Reportf(registered[pat],
			"registered pattern %q is not in the routes manifest", pat)
	}

	// Generation discipline: the named handler must reach a genstamp function.
	recvType, _, _ := strings.Cut(key, ".")
	pats := make([]string, 0, len(expected))
	for pat := range expected {
		pats = append(pats, pat)
	}
	sort.Strings(pats)
	for _, pat := range pats {
		r := expected[pat]
		if r.Handler == "" {
			continue
		}
		h := info.byKey[recvType+"."+r.Handler]
		if h == nil {
			h = info.byKey[r.Handler]
		}
		if h == nil {
			pass.Reportf(fd.Name.Pos(),
				"routes manifest route %s %s names handler %q: no such function or method on %s",
				r.Method, r.Path, r.Handler, recvType)
			continue
		}
		if r.Generation && !reachesGenstamp(info, h) {
			pass.Reportf(info.decls[h].Name.Pos(),
				"route %s %s is marked generation:true but handler %s never reaches a //recclint:genstamp function",
				r.Method, r.Path, r.Handler)
		}
	}
}

// reachesGenstamp walks the package-local call graph from start.
func reachesGenstamp(info *pkgInfo, start *types.Func) bool {
	visited := map[*types.Func]bool{start: true}
	queue := []*types.Func{start}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if info.genstamp[fn] {
			return true
		}
		for _, callee := range info.calls[fn] {
			if !visited[callee] {
				visited[callee] = true
				queue = append(queue, callee)
			}
		}
	}
	return false
}

// --- helpers ---

// calleeFunc resolves the *types.Func a call statically dispatches to, or nil
// for indirect calls and conversions.
func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcKey names a declaration the way the manifest's registrars map does:
// "recvType.method" for methods, "name" for plain functions.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// fileDirectiveArg finds a "//recclint:<dir> <arg>" comment anywhere in f and
// returns its first argument with the comment's position.
func fileDirectiveArg(f *ast.File, directive string) (string, token.Pos) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, directive+" ") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, directive))
			if len(fields) > 0 {
				return fields[0], c.Pos()
			}
		}
	}
	return "", token.NoPos
}

func hasDocDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}
