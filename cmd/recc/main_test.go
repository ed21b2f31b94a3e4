package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"resistecc"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := resistecc.BarabasiAlbert(60, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), nil); err == nil {
		t.Fatal("missing subcommand should fail")
	}
	if err := run(context.Background(), []string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := run(context.Background(), []string{"help"}); err != nil {
		t.Fatal("help should succeed")
	}
	if err := run(context.Background(), []string{"stats"}); err == nil {
		t.Fatal("stats without -in should fail")
	}
	if err := run(context.Background(), []string{"query", "-in", "/nonexistent"}); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestGenStatsRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.txt")
	if err := run(context.Background(), []string{"gen", "-type", "ba", "-n", "80", "-deg", "2", "-seed", "5", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"stats", "-in", out, "-fast"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"stats", "-in", out}); err != nil {
		t.Fatal(err)
	}
	// Every generator type parses.
	for _, typ := range []string{"plc", "ws", "er", "path", "cycle", "star", "complete"} {
		out := filepath.Join(t.TempDir(), typ+".txt")
		args := []string{"gen", "-type", typ, "-n", "40", "-deg", "4", "-out", out}
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("gen %s: %v", typ, err)
		}
	}
	if err := run(context.Background(), []string{"gen", "-type", "nope"}); err == nil {
		t.Fatal("unknown generator should fail")
	}
}

func TestQueryCommands(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(context.Background(), []string{"query", "-in", path, "-nodes", "0,5", "-exact"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"query", "-in", path, "-nodes", "0,5", "-eps", "0.3", "-dim", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"query", "-in", path, "-nodes", "0,999"}); err == nil {
		t.Fatal("out-of-range node should fail")
	}
	if err := run(context.Background(), []string{"query", "-in", path, "-nodes", "zero"}); err == nil {
		t.Fatal("non-numeric node should fail")
	}
	if err := run(context.Background(), []string{"query", "-in", path}); err == nil {
		t.Fatal("missing -nodes should fail")
	}
}

func TestDistCommand(t *testing.T) {
	path := writeTestGraph(t)
	if err := run(context.Background(), []string{"dist", "-in", path, "-exact", "-burr", "-bins", "10"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"dist", "-in", path, "-eps", "0.3", "-dim", "64"}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeCommand(t *testing.T) {
	path := writeTestGraph(t)
	for _, algo := range []string{"greedy", "far", "cen", "ch", "minrecc", "de", "pk", "path", "rand"} {
		args := []string{"optimize", "-in", path, "-source", "3", "-k", "2", "-algo", algo, "-dim", "48"}
		if err := run(context.Background(), args); err != nil {
			t.Fatalf("optimize %s: %v", algo, err)
		}
	}
	if err := run(context.Background(), []string{"optimize", "-in", path, "-source", "3", "-k", "1", "-algo", "greedy", "-problem", "remd", "-traj"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"optimize", "-in", path, "-algo", "nope"}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if err := run(context.Background(), []string{"optimize", "-in", path, "-source", "-5"}); err == nil {
		t.Fatal("bad source should fail")
	}
}

func TestSnapshotAndInspectCommands(t *testing.T) {
	path := writeTestGraph(t)
	dir := filepath.Join(t.TempDir(), "store")
	file := filepath.Join(t.TempDir(), "index.snap")

	if err := run(context.Background(), []string{"snapshot", "-in", path}); err == nil {
		t.Fatal("snapshot without a destination should fail")
	}
	if err := run(context.Background(), []string{"snapshot", "-in", path, "-data-dir", dir, "-out", file}); err == nil {
		t.Fatal("snapshot with both destinations should fail")
	}
	if err := run(context.Background(), []string{"snapshot", "-in", path, "-data-dir", dir, "-dim", "48", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
	// Second run finds the store warm and refreshes it.
	if err := run(context.Background(), []string{"snapshot", "-in", path, "-data-dir", dir, "-dim", "48", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"snapshot", "-in", path, "-out", file, "-dim", "48", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}

	if err := run(context.Background(), []string{"inspect", "-path", dir}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"inspect", file}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"inspect"}); err == nil {
		t.Fatal("inspect without a path should fail")
	}
	if err := run(context.Background(), []string{"inspect", "-path", filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("inspect of a missing path should fail")
	}
	// A snapshot saved with -out loads back into a usable index.
	d, err := resistecc.LoadSnapshot(file)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Snapshot().N == 0 {
		t.Fatal("loaded snapshot is empty")
	}
}
