package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"resistecc/internal/testutil"
)

func writeRaw(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// sampleRecords is a mixed workload covering every op kind, arg shape and
// field width the format must round-trip.
func sampleRecords() []Record {
	return []Record{
		{Seq: 1, DeltaNanos: 0, Op: OpQuery, Gen: 1, Digest: 0xdeadbeefcafe, Args: []int64{42}},
		{Seq: 2, DeltaNanos: 1500, Op: OpBatchQuery, Gen: 1, Digest: 7, Args: []int64{0, -9, 1 << 40}},
		{Seq: 3, DeltaNanos: 2, Op: OpAddEdge, Gen: 2, Digest: 99, Args: []int64{5, 11}},
		{Seq: 4, DeltaNanos: 1 << 33, Op: OpRemoveEdge, Gen: 2, Digest: 100, Args: []int64{5, 11}},
		{Seq: 5, DeltaNanos: 0, Op: OpRebuild, Gen: 2, Digest: DigestGen(2)},
		{Seq: 6, DeltaNanos: 12345, Op: OpCheckpoint, Gen: 3, Digest: DigestGen(3)},
		{Seq: 7, DeltaNanos: 1, Op: OpQuery, Gen: 3, Digest: 0}, // unverified, no args
	}
}

func encodeTrace(recs []Record) []byte {
	h := header()
	buf := append([]byte{}, h[:]...)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		b := appendRecord(nil, want)
		if len(b) != want.encodedSize() {
			t.Fatalf("record %d encoded to %d bytes, encodedSize says %d", want.Seq, len(b), want.encodedSize())
		}
		got, n, ok := decodeRecord(b)
		if !ok || n != len(b) {
			t.Fatalf("record %d failed to decode (ok=%v n=%d)", want.Seq, ok, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d round-trip mismatch:\n got %+v\nwant %+v", want.Seq, got, want)
		}
	}
}

func TestScanTraceFull(t *testing.T) {
	want := sampleRecords()
	buf := encodeTrace(want)
	recs, validSize, err := ScanTrace(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ScanTrace: %v", err)
	}
	if validSize != int64(len(buf)) {
		t.Fatalf("validSize = %d, want whole file %d", validSize, len(buf))
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("scanned records differ:\n got %+v\nwant %+v", recs, want)
	}
}

func TestScanTraceEmptyFile(t *testing.T) {
	h := header()
	recs, validSize, err := ScanTrace(bytes.NewReader(h[:]))
	if err != nil || len(recs) != 0 || validSize != headerSize {
		t.Fatalf("empty trace: recs=%d validSize=%d err=%v, want 0/%d/nil", len(recs), validSize, err, headerSize)
	}
}

// TestScanTraceCorruption is the torn-tail/corrupt-record decode matrix,
// mirroring the persist WAL suites: every mutation of a valid file must
// yield exactly the intact prefix, never an error, never a bogus record.
func TestScanTraceCorruption(t *testing.T) {
	recs := sampleRecords()
	full := encodeTrace(recs)
	// offsets[i] is where record i starts in full.
	offsets := make([]int, len(recs)+1)
	offsets[0] = headerSize
	for i, r := range recs {
		offsets[i+1] = offsets[i] + r.encodedSize()
	}

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		wantRecs int
		wantSize int64
	}{
		{"truncated header", func(b []byte) []byte { return b[:headerSize-3] }, 0, 0},
		{"foreign magic", func(b []byte) []byte {
			c := append([]byte{}, b...)
			copy(c, "NOTATRCE")
			return c
		}, 0, 0},
		{"mid-record cut in prefix", func(b []byte) []byte { return b[:offsets[2]+10] }, 2, int64(offsets[2])},
		{"mid-record cut in args", func(b []byte) []byte { return b[:offsets[1]+recPrefix+5] }, 1, int64(offsets[1])},
		{"cut before CRC", func(b []byte) []byte { return b[:offsets[4]-2] }, 3, int64(offsets[3])},
		{"CRC bit flip", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[offsets[4]-1] ^= 0x01 // last CRC byte of record 4
			return c
		}, 3, int64(offsets[3])},
		{"payload bit flip", func(b []byte) []byte {
			c := append([]byte{}, b...)
			c[offsets[1]+20] ^= 0x80 // inside record 2's delta field
			return c
		}, 1, int64(offsets[1])},
		{"oversize nargs", func(b []byte) []byte {
			c := append([]byte{}, b[:offsets[3]]...)
			bad := appendRecord(nil, recs[3])
			binary.LittleEndian.PutUint32(bad[33:37], maxArgs+1) // CRC now wrong too, but nargs bound trips first
			return append(c, bad...)
		}, 3, int64(offsets[3])},
		{"garbage tail", func(b []byte) []byte {
			return append(append([]byte{}, b...), 0xff, 0x13, 0x37)
		}, len(recs), int64(len(full))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, validSize, err := ScanTrace(bytes.NewReader(tc.mutate(full)))
			if err != nil {
				t.Fatalf("ScanTrace: %v", err)
			}
			if len(got) != tc.wantRecs || validSize != tc.wantSize {
				t.Fatalf("got %d records valid to %d, want %d records valid to %d",
					len(got), validSize, tc.wantRecs, tc.wantSize)
			}
			if tc.wantRecs > 0 && !reflect.DeepEqual(got, recs[:tc.wantRecs]) {
				t.Fatalf("prefix records differ from original")
			}
		})
	}
}

func TestScanTraceForeignVersion(t *testing.T) {
	buf := encodeTrace(sampleRecords())
	binary.LittleEndian.PutUint32(buf[8:12], FormatVersion+1)
	if _, _, err := ScanTrace(bytes.NewReader(buf)); !errors.Is(err, ErrVersion) {
		t.Fatalf("foreign version: err = %v, want ErrVersion", err)
	}
}

func TestScanTraceSeqViolations(t *testing.T) {
	recs := sampleRecords()
	t.Run("gap", func(t *testing.T) {
		bad := append([]Record{}, recs...)
		bad[3].Seq = 9 // 1,2,3,9,...
		got, _, err := ScanTrace(bytes.NewReader(encodeTrace(bad)))
		if err != nil || len(got) != 3 {
			t.Fatalf("seq gap: got %d records err=%v, want 3 records", len(got), err)
		}
	})
	t.Run("not starting at 1", func(t *testing.T) {
		bad := append([]Record{}, recs...)
		for i := range bad {
			bad[i].Seq += 5
		}
		got, validSize, err := ScanTrace(bytes.NewReader(encodeTrace(bad)))
		if err != nil || len(got) != 0 || validSize != headerSize {
			t.Fatalf("seq from 6: got %d records valid to %d err=%v, want 0/%d", len(got), validSize, err, headerSize)
		}
	})
}

func TestWriteReadFile(t *testing.T) {
	want := sampleRecords()
	path := filepath.Join(t.TempDir(), "w.trc")
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, info, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("records differ after file round-trip")
	}
	if info.Records != len(want) || info.TornBytes != 0 {
		t.Fatalf("info = %+v, want %d records and no torn tail", info, len(want))
	}
	if info.FirstSeq != 1 || info.LastSeq != uint64(len(want)) {
		t.Fatalf("seq bounds = [%d,%d], want [1,%d]", info.FirstSeq, info.LastSeq, len(want))
	}
	var span uint64
	for _, r := range want {
		span += r.DeltaNanos
	}
	if info.SpanNanos != span {
		t.Fatalf("span = %d, want %d", info.SpanNanos, span)
	}
	if info.ByOp[OpQuery] != 2 || info.ByOp[OpBatchQuery] != 1 || info.ByOp[OpRebuild] != 1 {
		t.Fatalf("per-op counts wrong: %+v", info.ByOp)
	}
}

func TestWriteFileRejectsBadRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trc")
	if err := WriteFile(path, []Record{{Seq: 1, Op: Op(42)}}); err == nil {
		t.Fatal("invalid op accepted")
	}
	if err := WriteFile(path, []Record{{Seq: 2, Op: OpQuery}}); err == nil {
		t.Fatal("seq not starting at 1 accepted")
	}
}

func TestInspectFileTornTail(t *testing.T) {
	recs := sampleRecords()
	buf := encodeTrace(recs)
	cut := len(buf) - 13 // slice into the last record
	path := filepath.Join(t.TempDir(), "torn.trc")
	if err := writeRaw(path, buf[:cut]); err != nil {
		t.Fatal(err)
	}
	info, err := InspectFile(path)
	if err != nil {
		t.Fatalf("InspectFile: %v", err)
	}
	if info.Records != len(recs)-1 {
		t.Fatalf("torn trace: %d records, want %d", info.Records, len(recs)-1)
	}
	if info.TornBytes <= 0 || info.ValidBytes+info.TornBytes != int64(cut) {
		t.Fatalf("byte accounting wrong: valid=%d torn=%d file=%d", info.ValidBytes, info.TornBytes, cut)
	}
}

// TestErrorPathsCloseFiles: a WriteFile whose write fails still closes the
// file it created.
func TestErrorPathsCloseFiles(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	testutil.CheckFiles(t)
	if err := WriteFile("/dev/full", sampleRecords()); err == nil {
		t.Fatal("WriteFile to /dev/full succeeded")
	}
}
