package persist

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// headerCRC recomputes the tail-frame header checksum after a test mutation.
func headerCRC(b []byte) uint32 { return crc32.Checksum(b[:48], castagnoli) }

// tailStore opens a store with a checkpoint at seq 0 and n appended records.
func tailStore(t *testing.T, n int) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Checkpoint(testSnapshot(t, 0, 1)); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= n; seq++ {
		if err := st.Append(Record{Seq: uint64(seq), Add: true, U: seq, V: 0}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestTailSinceServesAndCaps(t *testing.T) {
	st := tailStore(t, 5)
	v, err := st.TailSince(1, 0)
	if err != nil {
		t.Fatalf("full tail: %v", err)
	}
	if len(v.Records) != 5 || v.Records[0].Seq != 1 || v.LastSeq != 5 || v.SnapSeq != 0 || v.SnapGen != 1 {
		t.Fatalf("full tail view: %+v", v)
	}
	v, err = st.TailSince(3, 2)
	if err != nil {
		t.Fatalf("capped tail: %v", err)
	}
	if len(v.Records) != 2 || v.Records[0].Seq != 3 || v.Records[1].Seq != 4 {
		t.Fatalf("capped records: %+v", v.Records)
	}
	if v.LastSeq != 5 {
		t.Fatalf("capped view must still report LastSeq 5, got %d", v.LastSeq)
	}
	// A caught-up caller gets an empty view, not an error.
	v, err = st.TailSince(6, 0)
	if err != nil || len(v.Records) != 0 || v.LastSeq != 5 {
		t.Fatalf("caught-up view: %+v err=%v", v, err)
	}
	// The view is a copy: later appends must not alias into it.
	v, _ = st.TailSince(5, 0)
	if err := st.Append(Record{Seq: 6, Add: false, U: 9, V: 9}); err != nil {
		t.Fatal(err)
	}
	if len(v.Records) != 1 || v.Records[0].Seq != 5 {
		t.Fatalf("view mutated by later append: %+v", v.Records)
	}
}

func TestTailSinceGaps(t *testing.T) {
	st := tailStore(t, 3)
	for _, from := range []uint64{0, 7, 100} {
		if _, err := st.TailSince(from, 0); !errors.Is(err, ErrTailGap) {
			t.Fatalf("from=%d: want ErrTailGap, got %v", from, err)
		}
	}
	// At or below the snapshot seq is a gap too: those records were absorbed.
	if err := st.Checkpoint(testSnapshot(t, 2, 2)); err != nil {
		t.Fatal(err)
	}
	for _, from := range []uint64{1, 2} {
		if _, err := st.TailSince(from, 0); !errors.Is(err, ErrTailGap) {
			t.Fatalf("from=%d after checkpoint: want ErrTailGap, got %v", from, err)
		}
	}
	if v, err := st.TailSince(3, 0); err != nil || len(v.Records) != 1 || v.Records[0].Seq != 3 {
		t.Fatalf("post-checkpoint tail: %+v err=%v", v, err)
	}
}

func TestTailSinceRequiresSnapshot(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.TailSince(1, 0); !errors.Is(err, ErrTailGap) {
		t.Fatalf("no snapshot: want ErrTailGap, got %v", err)
	}
	if _, _, _, err := st.SnapshotBytes(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("no snapshot bytes: %v", err)
	}
}

func TestTailHoleStopsServingUntilCheckpoint(t *testing.T) {
	st := tailStore(t, 2)
	// Simulate an append that skipped a sequence (an earlier append failed):
	// the in-memory tail drops and serving stops.
	if err := st.Append(Record{Seq: 5, Add: true, U: 1, V: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.TailSince(1, 0); !errors.Is(err, ErrTailGap) {
		t.Fatalf("holed tail served: %v", err)
	}
	if _, err := st.TailSince(5, 0); !errors.Is(err, ErrTailGap) {
		t.Fatalf("unanchored tail served: %v", err)
	}
	// The next checkpoint re-anchors the tail and serving resumes.
	if err := st.Checkpoint(testSnapshot(t, 5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Seq: 6, Add: true, U: 3, V: 4}); err != nil {
		t.Fatal(err)
	}
	v, err := st.TailSince(6, 0)
	if err != nil || len(v.Records) != 1 || v.Records[0].Seq != 6 {
		t.Fatalf("tail after re-anchor: %+v err=%v", v, err)
	}
}

func TestTailAfterTornTailRestart(t *testing.T) {
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
	// Tear the last record mid-write.
	walPath := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	// Only the valid prefix 1..3 is servable after the repair.
	v, err := st2.TailSince(1, 0)
	if err != nil {
		t.Fatalf("tail after torn restart: %v", err)
	}
	if len(v.Records) != 3 || v.LastSeq != 3 {
		t.Fatalf("torn tail served %d records (last %d), want 3", len(v.Records), v.LastSeq)
	}
	if _, err := st2.TailSince(5, 0); !errors.Is(err, ErrTailGap) {
		t.Fatalf("position past torn cut served: %v", err)
	}
}

func TestSnapshotBytesRoundTrip(t *testing.T) {
	st := tailStore(t, 0)
	b, seq, gen, err := st.SnapshotBytes()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || gen != 1 {
		t.Fatalf("snapshot meta: seq=%d gen=%d", seq, gen)
	}
	snap, err := ReadSnapshot(b)
	if err != nil {
		t.Fatalf("shipped bytes unreadable: %v", err)
	}
	if snap.Seq != 0 || snap.Gen != 1 {
		t.Fatalf("shipped snapshot meta: %+v", snap)
	}
	if _, err := snap.Index(); err != nil {
		t.Fatalf("shipped snapshot index: %v", err)
	}
}

func TestTailFrameRoundTrip(t *testing.T) {
	f := wideFrame()
	b := EncodeTailFrame(f)
	got, err := DecodeTailFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != f.LastSeq || got.WriterGen != f.WriterGen ||
		got.SnapSeq != f.SnapSeq || got.SnapGen != f.SnapGen {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Records) != len(f.Records) {
		t.Fatalf("record count: %d", len(got.Records))
	}
	for i := range f.Records {
		if got.Records[i] != f.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got.Records[i], f.Records[i])
		}
	}
	// An empty frame (caught-up poll) round-trips too.
	if got, err := DecodeTailFrame(EncodeTailFrame(TailFrame{LastSeq: 7, WriterGen: 2})); err != nil ||
		len(got.Records) != 0 || got.LastSeq != 7 {
		t.Fatalf("empty frame: %+v err=%v", got, err)
	}
}

func TestTailFrameRejectsCorruption(t *testing.T) {
	f := TailFrame{
		LastSeq: 3, WriterGen: 1,
		Records: []Record{{Seq: 2, Add: true, U: 1, V: 2}, {Seq: 3, Add: true, U: 3, V: 4}},
	}
	good := EncodeTailFrame(f)

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantVer bool
	}{
		{"short", func(b []byte) []byte { return b[:10] }, false},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, false},
		{"version", func(b []byte) []byte {
			putU32(b[8:12], FormatVersion+1)
			// Re-seal the header CRC so only the version mismatch fires.
			putU32(b[48:52], headerCRC(b))
			return b
		}, true},
		{"header flip", func(b []byte) []byte { b[14] ^= 0x01; return b }, false},
		{"count mismatch", func(b []byte) []byte { return b[:len(b)-1] }, false},
		{"record flip", func(b []byte) []byte { b[tailHeaderSize+3] ^= 0x01; return b }, false},
		{"gapped records", func(b []byte) []byte {
			rec := encodeRecord(Record{Seq: 9, Add: true, U: 0, V: 1})
			copy(b[tailHeaderSize+walRecordSize:], rec[:])
			return b
		}, false},
	}
	for _, tc := range cases {
		b := append([]byte(nil), good...)
		_, err := DecodeTailFrame(tc.mutate(b))
		want := ErrCorrupt
		if tc.wantVer {
			want = ErrVersion
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, want)
		}
	}
}
