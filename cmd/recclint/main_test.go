package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{
		"ctxflow", "determinism", "erridentity", "floateq",
		"lockguard", "lockorder", "metrichygiene", "syncerr",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output is missing %q:\n%s", name, out.String())
		}
	}
}

func TestBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("run(-nonsense) = %d, want 2", code)
	}
}

func TestBadFormatFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format=xml"}, &out, &errb); code != 2 {
		t.Fatalf("run(-format=xml) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown -format") {
		t.Errorf("stderr does not explain the bad format: %s", errb.String())
	}
}

// runIn runs the CLI from dir, restoring the working directory afterwards.
func runIn(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCleanPackage runs the real loader and suite over one small clean
// package; the full-module sweep lives in internal/analysis's meta-test.
func TestCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"./../../internal/graph"}, &out, &errb); code != 0 {
		t.Fatalf("run over internal/graph = %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package produced findings:\n%s", out.String())
	}
}

// TestFindingsExit1 pins the exit-code contract: findings are exit 1, with
// one file:line:col line per finding on stdout.
func TestFindingsExit1(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	code, out, errb := runIn(t, filepath.Join("testdata", "src", "badpkg"), ".")
	if code != 1 {
		t.Fatalf("run over badpkg = %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	for _, want := range []string{"[floateq]", "[ctxflow]"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout is missing a %s finding:\n%s", want, out)
		}
	}
	if !strings.Contains(errb, "finding(s)") {
		t.Errorf("stderr is missing the summary line: %s", errb)
	}
}

// TestLoaderErrorExit2 pins the other half of the contract: a package that
// fails to type-check is a loader error (exit 2), never reported as exit 1.
func TestLoaderErrorExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	code, out, errb := runIn(t, filepath.Join("testdata", "src", "brokenpkg"), ".")
	if code != 2 {
		t.Fatalf("run over brokenpkg = %d, want 2\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(errb, "recclint:") {
		t.Errorf("stderr does not carry the loader error: %s", errb)
	}
}

// TestSARIFOutput checks -format=sarif emits a valid SARIF 2.1.0 log whose
// results and rules cover the findings text mode would print.
func TestSARIFOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	code, out, errb := runIn(t, filepath.Join("testdata", "src", "badpkg"), "-format=sarif", ".")
	if code != 1 {
		t.Fatalf("run -format=sarif over badpkg = %d, want 1\nstderr: %s", code, errb)
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" {
		t.Errorf("SARIF version %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "recclint" {
		t.Fatalf("unexpected runs shape: %+v", log.Runs)
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	seen := make(map[string]bool)
	for _, res := range log.Runs[0].Results {
		seen[res.RuleID] = true
		if !rules[res.RuleID] {
			t.Errorf("result rule %q is not declared in driver.rules", res.RuleID)
		}
		if res.Message.Text == "" {
			t.Errorf("result %q has an empty message", res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Errorf("result %q has %d locations, want 1", res.RuleID, len(res.Locations))
			continue
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "bad.go" {
			t.Errorf("result %q URI %q, want relative bad.go", res.RuleID, loc.ArtifactLocation.URI)
		}
		if loc.Region.StartLine <= 0 {
			t.Errorf("result %q has no start line", res.RuleID)
		}
	}
	for _, want := range []string{"floateq", "ctxflow"} {
		if !seen[want] {
			t.Errorf("SARIF results are missing rule %q", want)
		}
	}
}

// TestBudgetExceededExit2 pins the -budget contract: a ceiling no analyzer
// can meet trips exit 2 and names at least one offender on stderr.
func TestBudgetExceededExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	code, _, errb := runIn(t, filepath.Join("..", "..", "internal", "graph"), "-budget=1ns", ".")
	if code != 2 {
		t.Fatalf("run -budget=1ns = %d, want 2\nstderr: %s", code, errb)
	}
	if !strings.Contains(errb, "over the 1ns budget") {
		t.Errorf("stderr does not name the over-budget analyzer: %s", errb)
	}
}

// TestBudgetGenerousExit0 is the other half: a realistic ceiling passes.
func TestBudgetGenerousExit0(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	code, out, errb := runIn(t, filepath.Join("..", "..", "internal", "graph"), "-budget=10m", ".")
	if code != 0 {
		t.Fatalf("run -budget=10m = %d, want 0\nstdout: %s\nstderr: %s", code, out, errb)
	}
}

// TestErrIdentityFixRoundTrip pins the erridentity autofix end to end: both
// sentinel comparisons are rewritten to errors.Is, the "errors" import is
// inserted exactly once, and the rewritten file is gofmt-clean and lints
// clean on a second pass.
func TestErrIdentityFixRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list")
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "src", "errfixpkg")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	code, out, errb := runIn(t, dir, "-fix", ".")
	if code != 0 {
		t.Fatalf("run -fix = %d, want 0 (every finding fixable)\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if !strings.Contains(errb, "applied 2 fix(es)") {
		t.Errorf("stderr does not report both applied fixes: %s", errb)
	}

	fixed, err := os.ReadFile(filepath.Join(dir, "err.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"errors.Is(err, io.EOF)", "!errors.Is(err, io.ErrUnexpectedEOF)"} {
		if !strings.Contains(string(fixed), want) {
			t.Errorf("fix did not produce %q:\n%s", want, fixed)
		}
	}
	if n := strings.Count(string(fixed), `"errors"`); n != 1 {
		t.Errorf("expected the errors import inserted exactly once, found %d:\n%s", n, fixed)
	}
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed file does not parse: %v", err)
	}
	if !bytes.Equal(formatted, fixed) {
		t.Errorf("fixed file is not gofmt-clean:\n%s", fixed)
	}

	if code, out, errb := runIn(t, dir, "."); code != 0 {
		t.Errorf("tree still has findings after -fix: exit %d\nstdout: %s\nstderr: %s", code, out, errb)
	}
}
