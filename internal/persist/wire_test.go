package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
	"resistecc/internal/lifecycle"
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

// wideEpsilon is the wide sketch's ε: inside (0,1), as a restore requires,
// with eight distinct non-zero bytes of its own.
const wideEpsilon = 0x3FE1D2C3B4A59687

// wideSnapshot is a consistent snapshot whose every free field holds its own
// full-width value. Only n, d, ε and the boundary ids are constrained:
// validate ties n and the ids to the graph, and the sketch must restore.
func wideSnapshot() *Snapshot {
	field := 0
	u := func() uint64 { field++; return wide(field) }
	i := func() int { return int(u()) }
	f := func() float64 { return math.Float64frombits(u()) }
	g := graph.RandomConnected(8, 12, 1)
	s := &Snapshot{}
	s.Seq, s.Gen, s.SavedUnixNano, s.BaseFP = u(), u(), int64(u()), u()
	s.Params = Params{Epsilon: f(), Dim: i(), Seed: int64(u()), HullMaxVertices: i()}
	meta := sketch.Meta{
		Dim: 3, N: g.N(), M: g.M(), Epsilon: math.Float64frombits(wideEpsilon),
		Seed:    s.Params.Seed, // the meta section carries it
		Updates: i(),
		Stats:   sketch.BuildStats{Rows: i(), TotalIters: i(), MaxIters: i(), MaxResidual: f(), Workers: i()},
	}
	h := &hull.Result{Vertices: []int{7, 0, 3}, Diameter: f(), Certified: true, Rounds: i()}
	var pts []float64
	for k := 0; k < 3*g.N(); k++ {
		pts = append(pts, f())
	}
	var signs []uint64
	for k := 0; k < 3*sketch.SignWords(g.M()); k++ {
		signs = append(signs, u())
	}
	sk, err := sketch.Restore(meta, pts, signs)
	if err != nil {
		panic(err) // a fixed fixture: it restores, or no test can run
	}
	s.Graph, s.Fast = g, &ecc.Fast{Sk: sk, Boundary: h.Vertices, HullInfo: h}
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

// knownSnapshot is a snapshot built from literal values only: a sketch
// restored from fixed meta rather than built (BuildStats.Workers follows
// GOMAXPROCS), a fixed hull and a fixed save time.
func knownSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	g := graph.RandomConnected(12, 20, 5)
	const d = 4
	meta := sketch.Meta{
		Dim: d, N: g.N(), M: g.M(), Epsilon: 0.25, Seed: 9, Updates: 2,
		Stats: sketch.BuildStats{Rows: d, TotalIters: 57, MaxIters: 17, MaxResidual: 3.5e-11, Workers: 1},
	}
	pts := make([]float64, g.N()*d)
	for i := range pts {
		pts[i] = float64(i%7)/8 - 0.375
	}
	signs := make([]uint64, d*sketch.SignWords(g.M()))
	for i := range signs {
		signs[i] = (uint64(i) + 1) * 0x9E3779B97F4A7C15 & (1<<g.M() - 1)
	}
	sk, err := sketch.Restore(meta, pts, signs)
	if err != nil {
		t.Fatal(err)
	}
	h := &hull.Result{Vertices: []int{3, 0, 7}, Diameter: 1.75, Certified: true, Rounds: 4}
	cs := lifecycle.CheckpointState{Seq: 11, Gen: 4, Graph: g, Fast: &ecc.Fast{Sk: sk, Boundary: h.Vertices, HullInfo: h}}
	s := Capture(cs, Params{Epsilon: 0.25, Dim: d, Seed: 9, HullMaxVertices: 3}, Fingerprint(g))
	s.SavedUnixNano = 1_700_000_000_123_456_789
	return s
}

// The round trips show that encoder and decoder agree; this pins both to
// the RECCSNP1 v3 bytes already on disk. The length and CRC-32C were
// recorded from the encoder that assembled each section in memory.
func TestSnapshotKnownAnswer(t *testing.T) {
	b := encodeSnapshot(t, knownSnapshot(t))
	if sum := crc32.Checksum(b, castagnoli); len(b) != 869 || sum != 0x07d45fd1 {
		t.Fatalf("known snapshot encodes to %d bytes with CRC-32C %#08x, want 869 bytes with 0x07d45fd1", len(b), sum)
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
	count := 0
	for _, p := range payloads {
		if len(p) > 0 {
			count++
		}
	}
	var b bytes.Buffer
	e := &enc{w: &b, b: make([]byte, 0, chunk)}
	e.b = append(e.b, snapshotMagic...)
	e.u32(FormatVersion)
	e.u32(uint32(count))
	for i, p := range payloads {
		if len(p) > 0 {
			writeSection(e, uint32(i+1), uint64(len(p)), func() {
				for _, c := range p {
					e.u8(c)
				}
			})
		}
	}
	e.flush()
	return b.Bytes()
}

// sectionPayloads returns the four section payloads of s's encoding, each
// clipped, so appending to one leaves the others as they are.
func sectionPayloads(t testing.TB, s *Snapshot) [][]byte {
	t.Helper()
	_, secs, err := scanSections(encodeSnapshot(t, s))
	if err != nil || len(secs) != 4 {
		t.Fatalf("framing %d sections: %v", len(secs), err)
	}
	p := make([][]byte, len(secs))
	for i, sec := range secs {
		p[i] = slices.Clip(sec.payload)
	}
	return p
}

// trailingByte returns the sections of a valid snapshot with one byte
// appended to section i's payload.
func trailingByte(t testing.TB, i int) [][]byte {
	p := sectionPayloads(t, wideSnapshot())
	p[i] = append(p[i], 0)
	return p
}

// Every section decoder reads its payload to the end: a byte past the last
// field is corruption, which the section's CRC cannot catch, since the
// writer computed it over the longer payload.
func TestSectionTrailingBytesRejected(t *testing.T) {
	for i, name := range []string{"meta", "graph", "sketch", "hull"} {
		_, err := ReadSnapshot(frameSnapshot(trailingByte(t, i)...))
		want := "1 trailing bytes in " + name + " section"
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s section plus one byte: err %v, want ErrCorrupt with %q", name, err, want)
		}
	}
}

// The ecc-cache section kind 5 of format v1 no longer exists: a v2 snapshot
// carrying it, CRC-valid, in place of the hull section is corrupt.
func TestRetiredSectionKindRejected(t *testing.T) {
	p := sectionPayloads(t, wideSnapshot())
	_, err := ReadSnapshot(frameSnapshot(p[0], p[1], p[2], nil, p[3]))
	if want := "unknown section kind 5"; !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("hull payload framed as kind 5: err %v, want ErrCorrupt with %q", err, want)
	}
}

// forgedSectionCount is a 16-byte snapshot header claiming 2^24 sections.
func forgedSectionCount() []byte {
	hdr := binary.LittleEndian.AppendUint32([]byte(snapshotMagic), FormatVersion)
	return binary.LittleEndian.AppendUint32(hdr, 1<<24)
}

// forgedNodeCount returns the sections of a valid snapshot whose graph
// claims n = 2^24 nodes.
func forgedNodeCount(t testing.TB) [][]byte {
	p := sectionPayloads(t, wideSnapshot())
	binary.LittleEndian.PutUint64(p[1][0:8], 1<<24)
	return p
}

// A sketch payload opens with nine build fields and the point count, then
// holds the points, M, the sign-word count and the sign words.
const pointCountAt = 72

// forgedSketchDim returns the sections of a valid snapshot whose sketch
// claims d = 2^61 over no points: n·d wraps round to 0 for n = 8.
func forgedSketchDim(t testing.TB) [][]byte {
	p := sectionPayloads(t, wideSnapshot())
	sk := p[2]
	k := binary.LittleEndian.Uint64(sk[pointCountAt:])
	binary.LittleEndian.PutUint64(sk[0:8], 1<<61)
	binary.LittleEndian.PutUint64(sk[pointCountAt:], 0)
	p[2] = append(sk[:pointCountAt+8:pointCountAt+8], sk[pointCountAt+8+8*k:]...)
	return p
}

// forgedProjection returns the sections of a valid snapshot whose
// projection does not fit its graph and sketch: edges counts other than the
// graph's m, and word counts other than d·⌈m/64⌉.
func forgedProjection(t testing.TB) map[string][][]byte {
	out := map[string][][]byte{}
	for name, edit := range map[string]func(m, k uint64, words []byte) (uint64, uint64, []byte){
		"an edge short": func(m, k uint64, w []byte) (uint64, uint64, []byte) { return m - 1, k, w },
		"an edge over":  func(m, k uint64, w []byte) (uint64, uint64, []byte) { return m + 1, k, w },
		"2^62 edges":    func(m, k uint64, w []byte) (uint64, uint64, []byte) { return 1 << 62, k, w },
		"a word short":  func(m, k uint64, w []byte) (uint64, uint64, []byte) { return m, k - 1, w[8:] },
		"a row too many": func(m, k uint64, w []byte) (uint64, uint64, []byte) {
			row := uint64(sketch.SignWords(int(m)))
			return m, k + row, append(w, w[:8*row]...)
		},
		"no projection": func(m, k uint64, w []byte) (uint64, uint64, []byte) { return m, 0, nil },
	} {
		p := sectionPayloads(t, wideSnapshot())
		sk := p[2]
		at := pointCountAt + 8 + 8*binary.LittleEndian.Uint64(sk[pointCountAt:]) // M
		m, k, words := edit(binary.LittleEndian.Uint64(sk[at:]), binary.LittleEndian.Uint64(sk[at+8:]), sk[at+16:])
		forged := binary.LittleEndian.AppendUint64(slices.Clone(sk[:at]), m)
		forged = binary.LittleEndian.AppendUint64(forged, k)
		p[2] = append(forged, words...)
		out[name] = p
	}
	return out
}

// A projection whose shape does not match the graph section's m and the
// sketch's d is corrupt, however its section CRC reads.
func TestProjectionShapeMismatchRejected(t *testing.T) {
	for name, p := range forgedProjection(t) {
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
		"node count":       frameSnapshot(forgedNodeCount(t)...),
		"sketch dimension": frameSnapshot(forgedSketchDim(t)...),
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
