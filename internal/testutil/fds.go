package testutil

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// CheckFiles fails t for every file the test opens and leaves open, naming
// its path. Call it first in a test that does not run in parallel. It turns
// the garbage collector off until cleanup, so the *os.File finalizer cannot
// close a leaked handle before the count, and skips t where /proc/self/fd
// does not exist.
func CheckFiles(t testing.TB) {
	t.Helper()
	before, err := openFiles()
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	gc := debug.SetGCPercent(-1)
	t.Cleanup(func() {
		defer debug.SetGCPercent(gc)
		after, err := openFiles()
		if err != nil {
			t.Fatal(err)
		}
		for fd, path := range after {
			if before[fd] != path {
				t.Errorf("fd %d (%s) was opened by the test and is still open", fd, path)
			}
		}
	})
}

// openFiles maps each open descriptor whose link target is a filesystem path
// to that path; sockets, pipes and the /proc listing itself are skipped.
func openFiles() (map[int]string, error) {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil, err
	}
	files := make(map[int]string)
	for _, e := range entries {
		path, err := os.Readlink("/proc/self/fd/" + e.Name())
		fd, cerr := strconv.Atoi(e.Name())
		if err == nil && cerr == nil && strings.HasPrefix(path, "/") && !strings.HasPrefix(path, "/proc/") {
			files[fd] = path
		}
	}
	return files, nil
}
