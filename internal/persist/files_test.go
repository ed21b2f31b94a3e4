package persist

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"resistecc/internal/testutil"
)

// blockWithDir replaces path by a non-empty directory, so renaming a file
// onto it fails.
func blockWithDir(t *testing.T, path string) {
	t.Helper()
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// noTempFiles fails t if a .persist-tmp-* file survived in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestErrorPathsCloseFiles drives each store error branch that follows a
// successful open and requires that no file handle, and no temp file,
// survives it.
func TestErrorPathsCloseFiles(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	snap := testSnapshot(t, 1, 1)
	// openBlocked opens a store and then blocks its WAL path, so the next
	// rewrite's rename fails.
	openBlocked := func(t *testing.T) *Store {
		dir := t.TempDir()
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		blockWithDir(t, filepath.Join(dir, "wal.log"))
		return st
	}

	t.Run("Open/truncate", func(t *testing.T) {
		testutil.CheckFiles(t)
		dir := t.TempDir()
		if err := os.Symlink("/dev/full", filepath.Join(dir, "wal.log")); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, syscall.EINVAL) {
			t.Fatalf("Open over /dev/full: %v, want EINVAL from the truncate", err)
		}
	})
	t.Run("Reset/rename", func(t *testing.T) {
		testutil.CheckFiles(t)
		st := openBlocked(t)
		if err := st.Reset(); err == nil {
			t.Fatal("Reset renamed onto a non-empty directory")
		}
		noTempFiles(t, st.Dir())
	})
	t.Run("Checkpoint/rename", func(t *testing.T) {
		testutil.CheckFiles(t)
		st := openBlocked(t)
		if err := st.Checkpoint(snap); err == nil {
			t.Fatal("Checkpoint renamed onto a non-empty directory")
		}
		noTempFiles(t, st.Dir())
	})
	t.Run("WriteSnapshotFile/rename", func(t *testing.T) {
		testutil.CheckFiles(t)
		dir := t.TempDir()
		path := filepath.Join(dir, "snapshot")
		blockWithDir(t, path)
		if err := WriteSnapshotFile(path, snap); err == nil {
			t.Fatal("WriteSnapshotFile renamed onto a non-empty directory")
		}
		noTempFiles(t, dir)
	})
}
