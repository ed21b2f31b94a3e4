package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"resistecc/internal/graph"
	"resistecc/internal/sketch"
)

// wide returns the value for field i of a round-trip fixture: distinct per
// field, with eight distinct non-zero bytes, so a truncated, widened,
// reordered or swapped field cannot decode to the value it was given.
func wide(i int) uint64 {
	var x uint64
	for k := 0; k < 8; k++ {
		x |= uint64(8*i+k+1) << (8 * k)
	}
	return x
}

// wideSnapshot is a consistent snapshot whose every free field holds its own
// full-width value. Only n, d and the boundary ids are small: validate ties
// them to the graph.
func wideSnapshot() *Snapshot {
	field := 0
	u := func() uint64 { field++; return wide(field) }
	i := func() int { return int(u()) }
	f := func() float64 { return math.Float64frombits(u()) }
	g := graph.RandomConnected(8, 12, 1)
	s := &Snapshot{
		Seq: u(), Gen: u(), SavedUnixNano: int64(u()), BaseFP: u(),
		Params: Params{Epsilon: f(), Dim: i(), Seed: int64(u()), HullMaxVertices: i()},
		Graph:  g,
		SketchMeta: sketch.Meta{
			Dim: 3, N: g.N(), M: g.M(), Epsilon: f(), Updates: i(),
			Stats: sketch.BuildStats{Rows: i(), TotalIters: i(), MaxIters: i(), MaxResidual: f(), Workers: i()},
		},
		Boundary:  []int{7, 0, 3},
		Diameter:  f(),
		Certified: true,
		Rounds:    i(),
	}
	s.SketchMeta.Seed = s.Params.Seed // the meta section carries it
	for k := 0; k < 3*g.N(); k++ {
		s.Points = append(s.Points, f())
	}
	for k := 0; k < 3*sketch.SignWords(g.M()); k++ {
		s.Signs = append(s.Signs, u())
	}
	return s
}

func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteSnapshot(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// wideRecords is a contiguous WAL run with full-width sequence numbers and
// 32-bit node ids of both signs.
func wideRecords() []Record {
	return []Record{
		{Seq: wide(1), Add: true, U: 0x14131211, V: 0x18171615},
		{Seq: wide(1) + 1, Add: false, U: -0x1c1b1a19, V: 0x201f1e1d},
		{Seq: wide(1) + 2, Add: true, U: 0x24232221, V: -0x28272625},
	}
}

// wideFrame is a tail frame with a full-width value in every header field.
func wideFrame() TailFrame {
	return TailFrame{LastSeq: wide(2), WriterGen: wide(3), SnapSeq: wide(4), SnapGen: wide(5), Records: wideRecords()}
}

func encodeWAL(recs []Record) []byte {
	h := walHeader()
	b := h[:]
	for _, r := range recs {
		rec := encodeRecord(r)
		b = append(b, rec[:]...)
	}
	return b
}

func TestSnapshotWideRoundTrip(t *testing.T) {
	want := wideSnapshot()
	got, err := ReadSnapshot(encodeSnapshot(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(got.Graph) != Fingerprint(want.Graph) {
		t.Fatal("graph changed in the round trip")
	}
	g, w := *got, *want
	g.Graph, w.Graph = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", g, w)
	}
}

// encodeSketch sizes its buffer from the fields it writes, so a checkpoint
// builds the sketch section, the bulk of a snapshot, in one allocation and
// never copies it to grow.
func TestEncodeSketchAllocatesOnce(t *testing.T) {
	s := wideSnapshot()
	var b []byte
	if allocs := testing.AllocsPerRun(20, func() { b = encodeSketch(s.SketchMeta, s.Points, s.Signs) }); allocs != 1 {
		t.Errorf("encodeSketch allocates %.1f times, want 1", allocs)
	}
	if len(b) != cap(b) {
		t.Errorf("encodeSketch wrote %d bytes into %d reserved", len(b), cap(b))
	}
}

func TestWALWideRoundTrip(t *testing.T) {
	want := wideRecords()
	b := encodeWAL(want)
	version, got, validSize, err := scanWAL(bytes.NewReader(b))
	if err != nil || version != FormatVersion || validSize != int64(len(b)) {
		t.Fatalf("scan: v%d, %d of %d bytes valid, err %v", version, validSize, len(b), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", got, want)
	}
}

// Every single-bit flip of a snapshot is rejected as corrupt or as a foreign
// version: the flips in the framing (magic, version, section count, kinds,
// lengths) as well as those the section CRCs catch.
func TestSnapshotEveryBitFlipRejected(t *testing.T) {
	b := encodeSnapshot(t, wideSnapshot())
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		_, err := ReadSnapshot(b)
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip of bit %d (byte %d): err %v", bit%8, bit/8, err)
		}
		b[bit/8] ^= 1 << (bit % 8)
	}
}

// A single-bit flip in a WAL record drops that record and every record after
// it; a flip in the header drops them all.
func TestWALEveryBitFlipDropsRecord(t *testing.T) {
	recs := wideRecords()
	b := encodeWAL(recs)
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		keep := 0
		if bit/8 >= walHeaderSize {
			keep = (bit/8 - walHeaderSize) / walRecordSize
		}
		_, got, validSize, err := scanWAL(bytes.NewReader(b))
		if err != nil && !(keep == 0 && errors.Is(err, ErrVersion)) {
			t.Fatalf("flip of bit %d (byte %d): err %v", bit%8, bit/8, err)
		}
		if len(got) != keep || (keep > 0 && !reflect.DeepEqual(got, recs[:keep])) {
			t.Fatalf("flip of bit %d (byte %d): kept %d records, want %d", bit%8, bit/8, len(got), keep)
		}
		if keep > 0 && validSize != int64(walHeaderSize+keep*walRecordSize) {
			t.Fatalf("flip of bit %d (byte %d): valid size %d", bit%8, bit/8, validSize)
		}
		b[bit/8] ^= 1 << (bit % 8)
	}
}

func TestTailFrameEveryBitFlipRejected(t *testing.T) {
	b := EncodeTailFrame(wideFrame())
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		_, err := DecodeTailFrame(b)
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip of bit %d (byte %d): err %v", bit%8, bit/8, err)
		}
		b[bit/8] ^= 1 << (bit % 8)
	}
}

// frameSnapshot frames section payloads as kinds 1, 2, … with valid CRCs,
// skipping empty ones, so a test reaches the decoders behind the checksums.
func frameSnapshot(payloads ...[]byte) []byte {
	var hdr enc
	hdr.b = append(hdr.b, snapshotMagic...)
	hdr.u32(FormatVersion)
	count := 0
	for _, p := range payloads {
		if len(p) > 0 {
			count++
		}
	}
	hdr.u32(uint32(count))
	b := bytes.NewBuffer(hdr.b)
	for i, p := range payloads {
		if len(p) > 0 {
			writeSection(b, uint32(i+1), p)
		}
	}
	return b.Bytes()
}

// sectionPayloads returns the four section payloads of s.
func sectionPayloads(s *Snapshot) [][]byte {
	return [][]byte{encodeMeta(s), encodeGraph(s.Graph), encodeSketch(s.SketchMeta, s.Points, s.Signs), encodeHull(s)}
}

// trailingByte returns the sections of a valid snapshot with one byte
// appended to section i's payload.
func trailingByte(i int) [][]byte {
	p := sectionPayloads(wideSnapshot())
	p[i] = append(p[i], 0)
	return p
}

// Every section decoder reads its payload to the end: a byte past the last
// field is corruption, which the section's CRC cannot catch, since the
// writer computed it over the longer payload.
func TestSectionTrailingBytesRejected(t *testing.T) {
	for i, name := range []string{"meta", "graph", "sketch", "hull"} {
		_, err := ReadSnapshot(frameSnapshot(trailingByte(i)...))
		want := "1 trailing bytes in " + name + " section"
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s section plus one byte: err %v, want ErrCorrupt with %q", name, err, want)
		}
	}
}

// The ecc-cache section kind 5 of format v1 no longer exists: a v2 snapshot
// carrying it, CRC-valid, in place of the hull section is corrupt.
func TestRetiredSectionKindRejected(t *testing.T) {
	p := sectionPayloads(wideSnapshot())
	_, err := ReadSnapshot(frameSnapshot(p[0], p[1], p[2], nil, p[3]))
	if want := "unknown section kind 5"; !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("hull payload framed as kind 5: err %v, want ErrCorrupt with %q", err, want)
	}
}

// forgedSectionCount is a 16-byte snapshot header claiming 2^24 sections.
func forgedSectionCount() []byte {
	var e enc
	e.b = append(e.b, snapshotMagic...)
	e.u32(FormatVersion)
	e.u32(1 << 24)
	return e.b
}

// forgedNodeCount returns the sections of a valid snapshot whose graph
// claims n = 2^24 nodes.
func forgedNodeCount() [][]byte {
	p := sectionPayloads(wideSnapshot())
	binary.LittleEndian.PutUint64(p[1][0:8], 1<<24)
	return p
}

// forgedSketchDim returns the sections of a valid snapshot whose sketch
// claims d = 2^61 over no points: n·d wraps round to 0 for n = 8.
func forgedSketchDim() [][]byte {
	s := wideSnapshot()
	s.SketchMeta.Dim, s.SketchMeta.Epsilon, s.Points = 1<<61, 0.5, nil
	return sectionPayloads(s)
}

// forgedProjection returns the sections of a valid snapshot whose
// projection does not fit its graph and sketch: edges counts other than the
// graph's m, and word counts other than d·⌈m/64⌉.
func forgedProjection() map[string][][]byte {
	out := map[string][][]byte{}
	for name, edit := range map[string]func(s *Snapshot){
		"an edge short":  func(s *Snapshot) { s.SketchMeta.M-- },
		"an edge over":   func(s *Snapshot) { s.SketchMeta.M++ },
		"2^62 edges":     func(s *Snapshot) { s.SketchMeta.M = 1 << 62 },
		"a word short":   func(s *Snapshot) { s.Signs = s.Signs[1:] },
		"a row too many": func(s *Snapshot) { s.Signs = append(s.Signs, s.Signs[:sketch.SignWords(s.Graph.M())]...) },
		"no projection":  func(s *Snapshot) { s.Signs = nil },
	} {
		s := wideSnapshot()
		edit(s)
		out[name] = sectionPayloads(s)
	}
	return out
}

// A projection whose shape does not match the graph section's m and the
// sketch's d is corrupt, however its section CRC reads.
func TestProjectionShapeMismatchRejected(t *testing.T) {
	for name, p := range forgedProjection() {
		_, err := ReadSnapshot(frameSnapshot(p...))
		if want := "projection of"; !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want ErrCorrupt with %q", name, err, want)
		}
	}
}

// The decoder trusts no count it has not checked: a forged section count,
// node count or sketch dimension is rejected as corrupt before it allocates.
func TestForgedCountsDoNotAllocate(t *testing.T) {
	inputs := map[string][]byte{
		"section count":    forgedSectionCount(),
		"node count":       frameSnapshot(forgedNodeCount()...),
		"sketch dimension": frameSnapshot(forgedSketchDim()...),
	}
	var before, after runtime.MemStats
	for name, b := range inputs {
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("forged %s: err %v, want ErrCorrupt", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("forged %s: decoding allocated %d bytes", name, grew)
		}
	}
}
