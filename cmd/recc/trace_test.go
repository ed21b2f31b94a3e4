package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"resistecc/internal/trace"
)

// stampDigests executes a generated (unverified) trace against a fresh local
// index and writes the observed generations and digests back into the
// records, producing the same kind of verified trace a recording server
// emits. Records the target rejects (a generated add can collide with a base
// edge) are dropped and the sequence renumbered.
func stampDigests(t *testing.T, graphPath string, recs []trace.Record) []trace.Record {
	t.Helper()
	ex, err := localExecutor(context.Background(), graphPath, 0.3, 64, 5, 24)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Record, 0, len(recs))
	for _, rec := range recs {
		res, err := ex.Do(context.Background(), rec)
		if err != nil {
			continue
		}
		rec.Seq = uint64(len(out) + 1)
		rec.Gen = res.Gen
		rec.Digest = res.Digest
		out = append(out, rec)
	}
	return out
}

func TestLoadgenReplayInspectCommands(t *testing.T) {
	graphPath := writeTestGraph(t)
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.trc")

	// loadgen -out writes a deterministic trace file.
	gen := []string{
		"loadgen", "-nodes", "60", "-ops", "60", "-seed", "7",
		"-batch", "3", "-mutate", "0.2", "-rebuild-every", "25", "-checkpoint-every", "30",
		"-out", raw,
	}
	if err := run(context.Background(), gen); err != nil {
		t.Fatal(err)
	}
	recs, info, err := trace.ReadFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 60 || info.TornBytes != 0 {
		t.Fatalf("generated trace: %+v", info)
	}
	// Same spec, same bytes.
	raw2 := filepath.Join(dir, "raw2.trc")
	gen2 := append(append([]string{}, gen[:len(gen)-1]...), raw2)
	if err := run(context.Background(), gen2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(raw)
	b2, _ := os.ReadFile(raw2)
	if string(b1) != string(b2) {
		t.Fatal("loadgen is not deterministic in its spec")
	}

	// An unverified trace replays locally without failures.
	if err := run(context.Background(), []string{
		"replay", "-trace", raw, "-in", graphPath,
		"-eps", "0.3", "-dim", "64", "-seed", "5", "-hullcap", "24",
	}); err != nil {
		t.Fatalf("unverified replay: %v", err)
	}

	// Stamp digests by executing once, then a fresh same-seed index must
	// reproduce every bit.
	verified := stampDigests(t, graphPath, recs)
	if len(verified) == 0 {
		t.Fatal("no records survived stamping")
	}
	vpath := filepath.Join(dir, "verified.trc")
	if err := trace.WriteFile(vpath, verified); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"replay", "-trace", vpath, "-in", graphPath,
		"-eps", "0.3", "-dim", "64", "-seed", "5", "-hullcap", "24",
	}); err != nil {
		t.Fatalf("verified replay should be bit-exact: %v", err)
	}

	// A flipped digest is a divergence the replay must report.
	tampered := append([]trace.Record{}, verified...)
	for i := range tampered {
		if tampered[i].Digest != 0 {
			tampered[i].Digest ^= 1
			break
		}
	}
	tpath := filepath.Join(dir, "tampered.trc")
	if err := trace.WriteFile(tpath, tampered); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"replay", "-trace", tpath, "-in", graphPath,
		"-eps", "0.3", "-dim", "64", "-seed", "5", "-hullcap", "24",
	}); err == nil {
		t.Fatal("tampered digest should fail the replay")
	}

	// inspect dispatches on the trace magic.
	if err := run(context.Background(), []string{"inspect", "-path", vpath}); err != nil {
		t.Fatal(err)
	}

	// Flag validation.
	if err := run(context.Background(), []string{"replay", "-in", graphPath}); err == nil {
		t.Fatal("replay without -trace should fail")
	}
	if err := run(context.Background(), []string{"replay", "-trace", raw}); err == nil {
		t.Fatal("replay without a target should fail")
	}
	if err := run(context.Background(), []string{"replay", "-trace", raw, "-in", graphPath, "-target", "http://x"}); err == nil {
		t.Fatal("replay with two targets should fail")
	}
	if err := run(context.Background(), []string{"loadgen", "-nodes", "60"}); err == nil {
		t.Fatal("loadgen without a destination should fail")
	}
	if err := run(context.Background(), []string{"loadgen", "-out", filepath.Join(dir, "x.trc")}); err == nil {
		t.Fatal("loadgen without -nodes should fail")
	}
}
