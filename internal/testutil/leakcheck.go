// Package testutil holds test-only infrastructure shared across the repo's
// test suites. Its centerpiece is a stdlib-only goroutine-leak checker: the
// lifecycle manager and the reccd server both own background goroutines
// (the lifecycle worker, HTTP serving), and a test that forgets
// to Close one leaks workers that outlive the test and poison later timing-
// or race-sensitive tests in the same binary. CheckFiles does the same for
// files a test's error paths leave open.
package testutil

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benignMarks identify goroutine stacks that are expected to be alive after
// all tests finish: the test driver itself, this checker, and the runtime's
// signal plumbing. A stack containing any mark is not a leak.
var benignMarks = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).",
	"testing.runTests",
	"internal/testutil.VerifyNoLeaks",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
	"created by runtime",
}

// DetachedMarks identify goroutines the codebase deliberately never joins to
// a lifecycle — every function carrying a //recclint:detached directive (the
// goroutinelife analyzer's escape hatch) must appear here, qualified enough
// to match its stack frames unambiguously. The correspondence is enforced
// both ways by a cross-check test in internal/analysis, so a directive
// cannot silently rot into an unaccounted leak.
var DetachedMarks = []string{
	"resistecc/internal/ecc.batchWorker",
}

// VerifyNoLeaks reports an error if goroutines other than the benign set are
// still running. Goroutine shutdown is asynchronous — Close returns before
// the worker's final return instruction retires — so the check polls with
// backoff until the dump is clean or the deadline passes, and the error
// carries the surviving stacks.
func VerifyNoLeaks(within time.Duration) error {
	deadline := time.Now().Add(within)
	pause := time.Millisecond
	for {
		leaks := leakedStacks()
		if len(leaks) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d leaked goroutine(s) after %v:\n\n%s",
				len(leaks), within, strings.Join(leaks, "\n\n"))
		}
		time.Sleep(pause)
		if pause < 100*time.Millisecond {
			pause *= 2
		}
	}
}

// VerifyNoLeaksMain wraps a test suite for use in TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testutil.VerifyNoLeaksMain(m)) }
//
// It runs the suite and then fails the binary if goroutines leaked. Idle
// HTTP keep-alive connections are closed first: their readLoop goroutines
// are pool bookkeeping, not a leak in the code under test.
func VerifyNoLeaksMain(m *testing.M) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	if err := VerifyNoLeaks(2 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "testutil: %v\n", err)
		return 1
	}
	return code
}

// leakedStacks returns the stack of every live goroutine not matched by
// benignMarks.
func leakedStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaks []string
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		if g == "" || isBenign(g) {
			continue
		}
		leaks = append(leaks, g)
	}
	return leaks
}

func isBenign(stack string) bool {
	for _, mark := range benignMarks {
		if strings.Contains(stack, mark) {
			return true
		}
	}
	for _, mark := range DetachedMarks {
		if strings.Contains(stack, mark) {
			return true
		}
	}
	return false
}
