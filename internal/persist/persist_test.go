package persist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/lifecycle"
	"resistecc/internal/sketch"
)

func testParams() Params {
	return Params{Epsilon: 0.3, Dim: 48, Seed: 21}
}

func buildFast(t *testing.T, g *graph.Graph, p Params) *ecc.Fast {
	t.Helper()
	f, err := ecc.NewFast(g, ecc.FastOptions{Sketch: p.SketchOptions(), Hull: p.HullOptions()})
	if err != nil {
		t.Fatalf("NewFast: %v", err)
	}
	return f
}

func testSnapshot(t *testing.T, seq, gen uint64) *Snapshot {
	t.Helper()
	g := graph.RandomConnected(40, 90, 7)
	p := testParams()
	f := buildFast(t, g, p)
	cs := lifecycle.CheckpointState{Seq: seq, Gen: gen, Graph: g, Fast: f}
	return Capture(cs, p, Fingerprint(g), true)
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot(t, 3, 5)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Seq != s.Seq || got.Gen != s.Gen || got.BaseFP != s.BaseFP || got.Params != s.Params {
		t.Fatalf("meta mismatch: got %+v", got)
	}
	if got.SavedUnixNano != s.SavedUnixNano {
		t.Fatalf("timestamp mismatch")
	}
	if Fingerprint(got.Graph) != Fingerprint(s.Graph) {
		t.Fatalf("graph fingerprint mismatch")
	}
	if got.SketchMeta != s.SketchMeta {
		t.Fatalf("sketch meta mismatch: got %+v want %+v", got.SketchMeta, s.SketchMeta)
	}
	if len(got.Points) != len(s.Points) {
		t.Fatalf("points length mismatch")
	}
	for i := range s.Points {
		if got.Points[i] != s.Points[i] {
			t.Fatalf("point %d not bit-identical", i)
		}
	}
	if len(got.Boundary) != len(s.Boundary) {
		t.Fatalf("boundary mismatch")
	}
	for i := range s.Boundary {
		if got.Boundary[i] != s.Boundary[i] {
			t.Fatalf("boundary[%d] mismatch", i)
		}
	}
	if got.Diameter != s.Diameter || got.Certified != s.Certified || got.Rounds != s.Rounds {
		t.Fatalf("hull diagnostics mismatch")
	}
	for i := range s.Ecc {
		if got.Ecc[i] != s.Ecc[i] {
			t.Fatalf("ecc cache %d not bit-identical", i)
		}
	}

	// The restored index answers bit-identically.
	want, err := s.Index()
	if err != nil {
		t.Fatalf("index from original: %v", err)
	}
	have, err := got.Index()
	if err != nil {
		t.Fatalf("index from decoded: %v", err)
	}
	for v := 0; v < got.Graph.N(); v++ {
		if want.Eccentricity(v) != have.Eccentricity(v) {
			t.Fatalf("eccentricity of %d differs after round trip", v)
		}
	}
}

func TestSnapshotCorruptSectionRejected(t *testing.T) {
	s := testSnapshot(t, 1, 1)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the file (inside some section payload).
	for _, off := range []int{len(b) / 4, len(b) / 2, len(b) - 5} {
		c := append([]byte(nil), b...)
		c[off] ^= 0x40
		if _, rerr := ReadSnapshot(c); rerr == nil {
			t.Fatalf("bit flip at %d not detected", off)
		} else if !errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrVersion) {
			t.Fatalf("bit flip at %d: unexpected error class: %v", off, rerr)
		}
	}
	// Truncations at every section boundary and mid-payload must fail too.
	for _, cut := range []int{10, 30, len(b) / 3, len(b) - 1} {
		if _, rerr := ReadSnapshot(b[:cut]); rerr == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestSnapshotVersionMismatch(t *testing.T) {
	s := testSnapshot(t, 1, 1)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := WriteSnapshotFile(path, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	b, _ := os.ReadFile(path)
	b[8] = 99 // version field follows the 8-byte magic
	if _, err := ReadSnapshot(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestWALAppendAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot at seq 0 anchors the log.
	if err := st.Checkpoint(testSnapshot(t, 0, 1)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	recs := []Record{
		{Seq: 1, Add: true, U: 3, V: 9},
		{Seq: 2, Add: false, U: 1, V: 2},
		{Seq: 3, Add: true, U: 0, V: 7},
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	st.Close() // crash-like: no final checkpoint

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	snap, got, err := st2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if snap == nil || snap.Seq != 0 {
		t.Fatalf("snapshot not recovered")
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		if got[i] != r {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], r)
		}
	}
}

func TestWALTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(testSnapshot(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if err := st.Append(Record{Seq: seq, Add: true, U: int(seq), V: 0}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	walPath := filepath.Join(dir, "wal.log")
	fi, _ := os.Stat(walPath)
	// Torn write: the last record lost its final 5 bytes.
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, got, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("recovered %d records after torn tail, want 3", len(got))
	}
	// The file was repaired: a fresh append continues cleanly.
	if err := st2.Append(Record{Seq: 4, Add: false, U: 9, V: 9}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, _ := Open(dir)
	defer st3.Close()
	_, got, err = st3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3] != (Record{Seq: 4, Add: false, U: 9, V: 9}) {
		t.Fatalf("append after repair lost: %+v", got)
	}
}

func TestWALBitFlipStopsPrefix(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Checkpoint(testSnapshot(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := st.Append(Record{Seq: seq, Add: true, U: int(seq), V: 0}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	walPath := filepath.Join(dir, "wal.log")
	b, _ := os.ReadFile(walPath)
	// Corrupt record 3 (0-indexed 2).
	b[walHeaderSize+2*walRecordSize+4] ^= 0xFF
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := Open(dir)
	defer st2.Close()
	_, got, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d records past corruption, want 2", len(got))
	}
}

func TestRecoverSkipsLeftoverAndGappedRecords(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Checkpoint(testSnapshot(t, 2, 3)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Hand-write a WAL with a leftover record (seq 2 ≤ snapshot), the live
	// run 3..4, then a gap to 6: only 3..4 may replay.
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr := walHeader()
	f.Write(hdr[:])
	for _, r := range []Record{
		{Seq: 2, Add: true, U: 1, V: 2},
		{Seq: 3, Add: true, U: 4, V: 5},
		{Seq: 4, Add: false, U: 4, V: 5},
	} {
		b := encodeRecord(r)
		f.Write(b[:])
	}
	f.Close()
	st2, _ := Open(dir)
	defer st2.Close()
	snap, got, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 2 {
		t.Fatalf("snapshot seq: %+v", snap)
	}
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("usable records: %+v", got)
	}
}

func TestCheckpointTruncatesWALAndPrunesSnapshots(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Checkpoint(testSnapshot(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		st.Append(Record{Seq: seq, Add: true, U: int(seq), V: 0})
	}
	if got := st.Stats().WALRecords; got != 3 {
		t.Fatalf("wal records before checkpoint: %d", got)
	}
	if err := st.Checkpoint(testSnapshot(t, 3, 4)); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.WALRecords != 0 || stats.SnapshotSeq != 3 || stats.Checkpoints != 2 {
		t.Fatalf("post-checkpoint stats: %+v", stats)
	}
	files := st.snapshotFiles()
	if len(files) != 1 {
		t.Fatalf("old snapshots not pruned: %v", files)
	}
	// An out-of-date checkpoint must not clobber the fresher one: neither
	// an older sequence nor, at the same sequence, an older generation (a
	// manual checkpoint cut before a rebuild swap, written after it).
	for _, stale := range []*Snapshot{testSnapshot(t, 1, 2), testSnapshot(t, 3, 3)} {
		if err := st.Checkpoint(stale); err != nil {
			t.Fatal(err)
		}
		if got := st.Stats(); got.SnapshotSeq != 3 || got.SnapshotGen != 4 {
			t.Fatalf("stale checkpoint (seq %d gen %d) overwrote snapshot: seq %d gen %d",
				stale.Seq, stale.Gen, got.SnapshotSeq, got.SnapshotGen)
		}
	}
	st.Close()
}

func TestRecoverFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	oldSnap := testSnapshot(t, 0, 1)
	if err := st.Checkpoint(oldSnap); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-lineage: a corrupt newer snapshot beside a valid
	// older one, with the WAL still covering the gap.
	newPath := st.snapshotPath(2)
	if err := os.WriteFile(newPath, []byte("RECCSNP1garbage-not-a-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.Append(Record{Seq: 1, Add: true, U: 1, V: 2})
	st.Append(Record{Seq: 2, Add: true, U: 3, V: 4})
	st.Close()

	st2, _ := Open(dir)
	defer st2.Close()
	snap, recs, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 0 {
		t.Fatalf("did not fall back to older snapshot: %+v", snap)
	}
	if len(recs) != 2 {
		t.Fatalf("records after fallback: %+v", recs)
	}
}

func TestRecoverEmptyDir(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, recs, err := st.Recover()
	if err != nil || snap != nil || recs != nil {
		t.Fatalf("empty dir: snap=%v recs=%v err=%v", snap, recs, err)
	}
	if st.Stats().HasSnapshot {
		t.Fatal("stats claim a snapshot in an empty dir")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	g1 := graph.RandomConnected(30, 60, 1)
	g2 := g1.Clone()
	if Fingerprint(g1) != Fingerprint(g2) {
		t.Fatal("clone fingerprint differs")
	}
	// Find a non-edge and add it.
	cand := g2.ComplementCandidates()
	if len(cand) == 0 {
		t.Skip("complete graph")
	}
	if err := g2.AddEdge(cand[0].U, cand[0].V); err != nil {
		t.Fatal(err)
	}
	if Fingerprint(g1) == Fingerprint(g2) {
		t.Fatal("edge change not reflected in fingerprint")
	}
}

func TestSketchRestoreBitIdentical(t *testing.T) {
	g := graph.RandomConnected(25, 50, 3)
	p := testParams()
	sk, err := sketch.NewContext(context.Background(), g.ToCSR(), p.SketchOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sketch.Restore(sk.Meta(), sk.AppendPoints(nil))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if sk.Resistance(u, v) != got.Resistance(u, v) {
				t.Fatalf("resistance (%d,%d) not bit-identical", u, v)
			}
		}
	}
}

func TestInspectSnapshotAndWAL(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	if err := st.Checkpoint(testSnapshot(t, 5, 7)); err != nil {
		t.Fatal(err)
	}
	st.Append(Record{Seq: 6, Add: true, U: 0, V: 1})
	st.Close()

	reps, wi, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Valid || reps[0].Seq != 5 || reps[0].Gen != 7 {
		t.Fatalf("snapshot report: %+v", reps[0])
	}
	if !reps[0].HasEcc || reps[0].N == 0 || reps[0].BoundaryL == 0 {
		t.Fatalf("report sections incomplete: %+v", reps[0])
	}
	if wi == nil || wi.Records != 1 || wi.FirstSeq != 6 || wi.TornBytes != 0 {
		t.Fatalf("wal info: %+v", wi)
	}

	// Corrupt the snapshot: the report flags it instead of erroring.
	path := filepath.Join(dir, st.snapshotFiles()[0])
	b, _ := os.ReadFile(path)
	b[len(b)/2] ^= 0x01
	os.WriteFile(path, b, 0o644)
	rep, err := InspectSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid || rep.Err == "" {
		t.Fatalf("corrupt snapshot reported valid: %+v", rep)
	}
}
