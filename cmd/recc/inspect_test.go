package main

import (
	"context"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"resistecc/internal/persist"
	"resistecc/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the inspect golden files")

// inspectOutput runs `recc inspect` on path and captures its stdout, with the
// fixture directory and the wall-clock save time scrubbed so the output is
// byte-stable across runs and machines.
func inspectOutput(t *testing.T, dir, path string) string {
	t.Helper()
	out, err := runStdout("inspect", "-path", path)
	if err != nil {
		t.Fatalf("inspect %s: %v", path, err)
	}
	s := strings.ReplaceAll(out, dir+string(os.PathSeparator), "")
	return regexp.MustCompile(`(?m)^(  saved       ).*$`).ReplaceAllString(s, "${1}<time>")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "inspect", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("inspect output for %s diverged from %s:\n--- got ---\n%s--- want ---\n%s", name, golden, got, want)
	}
}

// tailRecords is the shared mutation run the WAL and tail-frame fixtures
// carry; EncodeTailFrame is the one exported producer of encoded WAL records.
func tailRecords() []persist.Record {
	return []persist.Record{
		{Seq: 1, Add: true, U: 0, V: 1},
		{Seq: 2, Add: true, U: 1, V: 2},
		{Seq: 3, Add: false, U: 0, V: 1},
	}
}

func tailFrameBytes() []byte {
	return persist.EncodeTailFrame(persist.TailFrame{
		LastSeq: 9, WriterGen: 2, SnapSeq: 5, SnapGen: 2, Records: tailRecords(),
	})
}

// walBytes assembles a WAL file image: the 12-byte header followed by the
// same 21-byte records a tail frame carries after its 52-byte header.
func walBytes() []byte {
	b := make([]byte, 0, 12+3*21)
	b = append(b, persist.WALMagic...)
	b = binary.LittleEndian.AppendUint32(b, persist.FormatVersion)
	return append(b, tailFrameBytes()[52:]...)
}

// v1MetaSnapshot re-frames a snapshot's meta section the way format v1
// wrote it, under version 1: five more build fields (unset, so zero) around
// the hull cap make it 104 bytes, and its CRC holds. The graph, sketch and
// hull sections follow unchanged.
func v1MetaSnapshot(snap []byte) []byte {
	const header, meta = 16, 16 + 12 // magic, version, count; then kind, length
	le := binary.LittleEndian
	v2 := snap[meta : meta+64]
	v1 := append(append([]byte{}, v2[:56]...), make([]byte, 32)...) // seq … seed; tol, θ, hull seed, directions
	v1 = append(append(v1, v2[56:]...), make([]byte, 8)...)         // hull cap; Frank–Wolfe steps
	b := append([]byte{}, snap[:header]...)
	le.PutUint32(b[8:12], 1)
	b = le.AppendUint32(b, 1) // section kind meta
	b = le.AppendUint64(b, uint64(len(v1)))
	b = le.AppendUint32(append(b, v1...), crc32.Checksum(v1, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, snap[meta+64+4:]...)
}

func writeFixture(t *testing.T, dir, name string, b []byte) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInspectGoldenOutputs pins `recc inspect` output for all four on-disk
// formats — snapshot, WAL, tail frame, trace — each in a healthy, torn-tail,
// and corrupt-CRC variant, plus a WAL and two snapshots from the previous
// format version: one whose sections all decode, and one with format v1's
// meta section, which does not. The goldens are the operator-facing
// contract: a format or renderer change that shifts them must be deliberate
// (-update).
func TestInspectGoldenOutputs(t *testing.T) {
	dir := t.TempDir()

	// Snapshot fixtures come from a real seeded build; the encoder is
	// deterministic, so sizes and details below the scrubbed save time are
	// byte-stable.
	graphPath := writeTestGraph(t)
	snapPath := filepath.Join(dir, "snap-healthy.snap")
	if err := run(context.Background(), []string{
		"snapshot", "-in", graphPath, "-out", snapPath, "-dim", "48", "-eps", "0.3",
	}); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, snap...)
	corrupt[len(corrupt)-1] ^= 0xFF // the final section's stored CRC
	writeFixture(t, dir, "snap-corrupt.snap", corrupt)
	writeFixture(t, dir, "snap-torn.snap", snap[:len(snap)/2])
	old := append([]byte{}, snap...)
	binary.LittleEndian.PutUint32(old[8:12], persist.FormatVersion-1) // the version follows the 8-byte magic
	writeFixture(t, dir, "snap-oldversion.snap", old)
	writeFixture(t, dir, "snap-v1meta.snap", v1MetaSnapshot(snap))

	wal := walBytes()
	writeFixture(t, dir, "wal-healthy.wal", wal)
	corrupt = append([]byte{}, wal...)
	corrupt[12+21+4] ^= 0xFF // inside the second record's payload
	writeFixture(t, dir, "wal-corrupt.wal", corrupt)
	writeFixture(t, dir, "wal-torn.wal", wal[:len(wal)-11]) // mid third record
	old = append([]byte{}, wal...)
	binary.LittleEndian.PutUint32(old[8:12], persist.FormatVersion-1)
	writeFixture(t, dir, "wal-oldversion.wal", old)

	frame := tailFrameBytes()
	writeFixture(t, dir, "tail-healthy.frame", frame)
	corrupt = append([]byte{}, frame...)
	corrupt[52+21+4] ^= 0xFF // inside the second record's payload
	writeFixture(t, dir, "tail-corrupt.frame", corrupt)
	writeFixture(t, dir, "tail-torn.frame", frame[:len(frame)-10])

	w := trace.Workload{Nodes: 16, Ops: 8, Seed: 3, MaxBatch: 2, MutationRate: 0.25}
	recs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	trcPath := filepath.Join(dir, "trc-healthy.trc")
	if err := trace.WriteFile(trcPath, recs); err != nil {
		t.Fatal(err)
	}
	trc, err := os.ReadFile(trcPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt = append([]byte{}, trc...)
	corrupt[len(corrupt)-1] ^= 0xFF // the last record's stored CRC
	writeFixture(t, dir, "trc-corrupt.trc", corrupt)
	writeFixture(t, dir, "trc-torn.trc", trc[:len(trc)-5])

	for _, name := range []string{
		"snap-healthy.snap", "snap-corrupt.snap", "snap-torn.snap", "snap-oldversion.snap", "snap-v1meta.snap",
		"wal-healthy.wal", "wal-corrupt.wal", "wal-torn.wal", "wal-oldversion.wal",
		"tail-healthy.frame", "tail-corrupt.frame", "tail-torn.frame",
		"trc-healthy.trc", "trc-corrupt.trc", "trc-torn.trc",
	} {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, inspectOutput(t, dir, filepath.Join(dir, name)))
		})
	}
}
