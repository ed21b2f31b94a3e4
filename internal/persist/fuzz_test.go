package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// The fuzzers hold the decoders of RECCSNP1, RECCWAL1 and RECCTAL1 to two
// invariants on arbitrary bytes: they never panic (nor size an allocation by
// an unchecked count), and whatever they accept re-encodes to the same value.
// The snapshot and tail-frame fuzzers also run `recc inspect`'s readers on
// every input: they must not panic, and must call valid exactly what the
// strict decoder accepts.

// checkRejection requires a rejection to be typed.
func checkRejection(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
		t.Fatalf("untyped rejection: %v", err)
	}
}

// checkAccepted requires an accepted snapshot, whose generation ReadSnapshot
// has already restored, to survive its own round trip: re-encoded, it
// decodes again and re-encodes to the same bytes. Encoding is a function of
// the value (the graph as an edge set), so equal bytes mean the value came
// back unchanged.
func checkAccepted(t *testing.T, s *Snapshot) {
	t.Helper()
	b := encodeSnapshot(t, s)
	again, err := ReadSnapshot(b)
	if err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
	if !bytes.Equal(encodeSnapshot(t, again), b) {
		t.Fatal("accepted snapshot does not re-encode to the same value")
	}
}

// checkInspectSnapshot requires the inspector's verdict on data to be
// ReadSnapshot's (err), and a valid report to describe all four sections.
func checkInspectSnapshot(t *testing.T, data []byte, err error) {
	t.Helper()
	rep := inspectSnapshot("fuzz.snap", data)
	if rep.Valid != (err == nil) || (rep.Err == "") != (err == nil) {
		t.Fatalf("inspector: valid=%v err=%q; ReadSnapshot: %v", rep.Valid, rep.Err, err)
	}
	if rep.Valid && (rep.Meta == nil || len(rep.Sections) != 4) {
		t.Fatalf("valid report without meta or with %d sections", len(rep.Sections))
	}
}

func FuzzReadSnapshot(f *testing.F) {
	good := encodeSnapshot(f, wideSnapshot())
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	f.Add(forgedSectionCount())
	f.Add(frameSnapshot(forgedNodeCount(f)...))
	f.Add(frameSnapshot(forgedSketchDim(f)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(data)
		checkInspectSnapshot(t, data, err)
		if err != nil {
			checkRejection(t, err)
			return
		}
		checkAccepted(t, s)
	})
}

// FuzzSnapshotSections fuzzes the section payloads and re-frames them with
// valid CRCs, so every input reaches the section decoders and validate.
func FuzzSnapshotSections(f *testing.F) {
	p := sectionPayloads(f, wideSnapshot())
	f.Add(p[0][:len(p[0])-4], p[1], p[2], p[3]) // a field cut to half width
	for _, secs := range [][][]byte{p, forgedNodeCount(f), forgedSketchDim(f), trailingByte(f, 0), trailingByte(f, 2)} {
		f.Add(secs[0], secs[1], secs[2], secs[3])
	}
	for _, secs := range forgedProjection(f) {
		f.Add(secs[0], secs[1], secs[2], secs[3])
	}
	f.Fuzz(func(t *testing.T, meta, graph, sketch, hull []byte) {
		data := frameSnapshot(meta, graph, sketch, hull)
		s, err := ReadSnapshot(data)
		checkInspectSnapshot(t, data, err)
		if err != nil {
			checkRejection(t, err)
			return
		}
		checkAccepted(t, s)
	})
}

func FuzzScanWAL(f *testing.F) {
	good := encodeWAL(wideRecords())
	f.Add([]byte{})
	f.Add(good[:walHeaderSize])
	f.Add(good)
	f.Add(good[:len(good)-5])
	flipped := append([]byte(nil), good...)
	flipped[walHeaderSize+walRecordSize+3] ^= 0x01
	f.Add(flipped)
	foreign := walHeader()
	binary.LittleEndian.PutUint32(foreign[8:12], FormatVersion+1)
	f.Add(append(foreign[:], "tail"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, validSize, err := scanWAL(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if validSize != 0 && !bytes.Equal(encodeWAL(recs), data[:validSize]) {
			t.Fatalf("accepted prefix does not re-encode identically (%d records, %d bytes)", len(recs), validSize)
		}
		if validSize == 0 && len(recs) != 0 {
			t.Fatalf("%d records from an invalid header", len(recs))
		}
	})
}

func FuzzDecodeTailFrame(f *testing.F) {
	good := EncodeTailFrame(wideFrame())
	f.Add([]byte{})
	f.Add(EncodeTailFrame(TailFrame{LastSeq: 7, WriterGen: 2}))
	f.Add(good)
	f.Add(good[:len(good)-1])
	flipped := append([]byte(nil), good...)
	flipped[tailHeaderSize+2] ^= 0x80
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeTailFrame(data)
		info := inspectTail("fuzz.frame", data)
		if info.Valid != (err == nil) || (info.Err == "") != (err == nil) {
			t.Fatalf("inspector: valid=%v err=%q; DecodeTailFrame: %v", info.Valid, info.Err, err)
		}
		if info.Valid && (info.Records != len(fr.Records) || info.Declared != info.Records || info.TornBytes != 0) {
			t.Fatalf("valid report: %d of %d records verified, %d torn bytes; frame has %d",
				info.Records, info.Declared, info.TornBytes, len(fr.Records))
		}
		if err != nil {
			checkRejection(t, err)
			return
		}
		if !bytes.Equal(EncodeTailFrame(fr), data) {
			t.Fatalf("accepted frame does not re-encode identically (%d records)", len(fr.Records))
		}
	})
}
