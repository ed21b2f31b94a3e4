package testutil

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenFilesSeesAFile: a file the test holds open is listed under its
// path, and is gone from the listing once closed.
func TestOpenFilesSeesAFile(t *testing.T) {
	if _, err := openFiles(); err != nil {
		t.Skipf("no descriptor table: %v", err)
	}
	dir, err := filepath.EvalSymlinks(t.TempDir()) // the fd link names the real path
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "held")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fd := int(f.Fd())
	files, err := openFiles()
	if err != nil {
		t.Fatal(err)
	}
	if got := files[fd]; got != path {
		t.Errorf("fd %d lists %q, want %q", fd, got, path)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ = openFiles(); files[fd] == path {
		t.Errorf("fd %d still lists %q after Close", fd, path)
	}
}
