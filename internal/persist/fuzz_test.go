package persist

import (
	"bytes"
	"errors"
	"testing"
)

// The fuzzers hold the decoders of RECCSNP1, RECCWAL1 and RECCTAL1 to two
// invariants on arbitrary bytes: they never panic (nor size an allocation by
// an unchecked count), and whatever they accept re-encodes to the same value.

// checkRejection requires a rejection to be typed.
func checkRejection(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
		t.Fatalf("untyped rejection: %v", err)
	}
}

// checkAccepted requires an accepted snapshot to restore an index (or fail
// to, without a panic) and to survive its own round trip: re-encoded, it
// decodes again and re-encodes to the same bytes. Encoding is a function of
// the value (the graph as an edge set), so equal bytes mean the value came
// back unchanged.
func checkAccepted(t *testing.T, s *Snapshot) {
	t.Helper()
	if _, err := s.Index(); err != nil {
		checkRejection(t, err)
	}
	b := encodeSnapshot(t, s)
	again, err := ReadSnapshot(b)
	if err != nil {
		t.Fatalf("re-encoded snapshot rejected: %v", err)
	}
	if !bytes.Equal(encodeSnapshot(t, again), b) {
		t.Fatal("accepted snapshot does not re-encode to the same value")
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
	f.Add(frameSnapshot(forgedNodeCount()...))
	f.Add(frameSnapshot(forgedSketchDim()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(data)
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
	p := sectionPayloads(wideSnapshot())
	f.Add(p[0][:len(p[0])-4], p[1], p[2], p[3], []byte{}) // a field cut to half width
	for _, secs := range [][][]byte{p, forgedNodeCount(), forgedSketchDim()} {
		f.Add(secs[0], secs[1], secs[2], secs[3], secs[4])
	}
	f.Fuzz(func(t *testing.T, meta, graph, sketch, hull, ecc []byte) {
		s, err := ReadSnapshot(frameSnapshot(meta, graph, sketch, hull, ecc))
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
	f.Add([]byte("RECCWAL1\x02\x00\x00\x00tail"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validSize, err := scanWAL(bytes.NewReader(data))
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
		if err != nil {
			checkRejection(t, err)
			return
		}
		if !bytes.Equal(EncodeTailFrame(fr), data) {
			t.Fatalf("accepted frame does not re-encode identically (%d records)", len(fr.Records))
		}
	})
}
