package main

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"resistecc/internal/obs"
)

// route is one row of reccd's HTTP surface.
type route struct {
	method, path string
	roles        []string
	// gen marks routes whose 2xx responses carry X-Index-Generation.
	gen bool
	// query and body complete a request the route answers with 2xx.
	query, body string
}

var (
	allRoles   = []string{roleWriter, roleReplica, roleRouter}
	indexRoles = []string{roleWriter, roleReplica}
	writerRole = []string{roleWriter}
	routerRole = []string{roleRouter}
)

// routeTable is reccd's whole HTTP surface. Rows run in order on each role,
// so the mutations come last, and the edge they add they also remove.
var routeTable = []route{
	{method: "GET", path: "/v1/healthz", roles: indexRoles, gen: true},
	{method: "GET", path: "/v1/healthz", roles: routerRole},
	{method: "GET", path: "/v1/metrics", roles: allRoles},
	{method: "GET", path: "/v1/eccentricity", roles: allRoles, gen: true, query: "node=0,5"},
	{method: "GET", path: "/v1/resistance", roles: allRoles, gen: true, query: "u=0&v=5"},
	{method: "GET", path: "/v1/summary", roles: allRoles, gen: true},
	{method: "GET", path: "/v1/repl/snapshot", roles: writerRole},
	{method: "GET", path: "/v1/repl/wal", roles: writerRole, query: "from=1"},
	{method: "GET", path: "/v1/repl/ids", roles: writerRole},
	{method: "GET", path: "/v1/repl/status", roles: indexRoles},
	{method: "POST", path: "/v1/edges", roles: allRoles, gen: true, body: `{"u":0,"v":100}`},
	{method: "DELETE", path: "/v1/edges", roles: allRoles, gen: true, query: "u=0&v=100"},
	{method: "POST", path: "/v1/checkpoint", roles: allRoles, gen: true},
	{method: "POST", path: "/v1/rebuild", roles: allRoles, gen: true},
}

// call sends one request and decodes the error envelope of a non-2xx answer.
func call(t *testing.T, method, url, body string) (int, http.Header, obs.ErrorEnvelope) {
	t.Helper()
	req, err := http.NewRequestWithContext(context.Background(), method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env obs.ErrorEnvelope
	if resp.StatusCode >= 400 {
		env = envelopeOf(t, resp.StatusCode, string(b))
	}
	return resp.StatusCode, resp.Header, env
}

// TestRouteSurface runs routeTable against the live handler of each role: a
// durable writer, a replica tailing it and a router in front of both. Every
// row answers (replicas refuse writes with 403 not_writer), every 2xx of a
// generation row carries X-Index-Generation, every other method on a listed
// path is a 405 envelope and every path a role does not list is a 404
// envelope. The "METHOD /path" literals in this package's source must equal
// the table, so a route cannot be registered or dropped without editing it.
func TestRouteSurface(t *testing.T) {
	rs := startReplSet(t)
	for _, r := range rs.replicas {
		waitConverged(t, rs.writer, r)
	}
	bases := map[string]string{
		roleWriter:  rs.writerTS.URL,
		roleReplica: rs.replicaTSs[0].URL,
		roleRouter:  rs.routerTS.URL,
	}
	for _, role := range allRoles {
		// The writer's rebuild from the previous role must finish first, or
		// a checkpoint answers 409 index_stale.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := rs.writer.current().dyn.WaitIdle(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()

		methods := map[string]map[string]bool{} // path -> methods this role serves
		for _, r := range routeTable {
			if methods[r.path] == nil {
				methods[r.path] = map[string]bool{}
			}
			if !slices.Contains(r.roles, role) {
				continue
			}
			methods[r.path][r.method] = true
			url := bases[role] + r.path
			if r.query != "" {
				url += "?" + r.query
			}
			status, hdr, env := call(t, r.method, url, r.body)
			if role == roleReplica && r.method != http.MethodGet {
				if status != http.StatusForbidden || env.Error.Code != "not_writer" {
					t.Errorf("%s %s %s: %d %q, want 403 not_writer", role, r.method, r.path, status, env.Error.Code)
				}
				continue
			}
			if status/100 != 2 {
				t.Errorf("%s %s %s: %d %q, want 2xx", role, r.method, r.path, status, env.Error.Code)
				continue
			}
			if r.gen && hdr.Get("X-Index-Generation") == "" {
				t.Errorf("%s %s %s: 2xx without X-Index-Generation", role, r.method, r.path)
			}
		}

		for path, served := range methods {
			if len(served) == 0 {
				status, _, env := call(t, http.MethodGet, bases[role]+path, "")
				if status != http.StatusNotFound || env.Error.Code != "not_found" {
					t.Errorf("%s GET %s: %d %q, want 404 not_found", role, path, status, env.Error.Code)
				}
				continue
			}
			for _, m := range []string{"GET", "POST", "PUT", "DELETE", "PATCH"} {
				if served[m] {
					continue
				}
				status, _, env := call(t, m, bases[role]+path, "")
				if status != http.StatusMethodNotAllowed || env.Error.Code != "method_not_allowed" {
					t.Errorf("%s %s %s: %d %q, want 405 method_not_allowed", role, m, path, status, env.Error.Code)
				}
			}
		}
	}

	table := map[string]bool{}
	for _, r := range routeTable {
		table[r.method+" "+r.path] = true
	}
	if got, want := registeredPatterns(t), sortedKeys(table); !slices.Equal(got, want) {
		t.Errorf("route literals in the source:\n%s\nroute table:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// registeredPatterns returns the distinct "METHOD /path" string literals in
// this package's non-test files, sorted.
func registeredPatterns(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`^[A-Z]+ /`)
	found := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && pattern.MatchString(s) {
					found[s] = true
				}
			}
			return true
		})
	}
	return sortedKeys(found)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
