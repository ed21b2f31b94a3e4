//recclint:deterministic — snapshot encodings must be byte-identical for identical state.

package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"resistecc/internal/graph"
	"resistecc/internal/sketch"
)

// Snapshot file layout (all integers little-endian):
//
//	magic "RECCSNP1" | u32 format version | u32 section count
//	per section: u32 kind | u64 payload length | payload | u32 CRC32-C
//
// Sections appear in kind order, and all four are required: they hold
// exactly what a restore reads. The whole payload of a section is covered
// by its CRC, so a torn write or a flipped bit anywhere is detected before
// any decoded value is trusted.
const snapshotMagic = "RECCSNP1"

const (
	secMeta   = 1
	secGraph  = 2
	secSketch = 3
	secHull   = 4
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc is a little-endian append-only byte encoder.
type enc struct{ b []byte }

func (e *enc) u8(x uint8)    { e.b = append(e.b, x) }
func (e *enc) u32(x uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, x) }
func (e *enc) u64(x uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, x) }
func (e *enc) i64(x int64)   { e.u64(uint64(x)) }
func (e *enc) f64(x float64) { e.u64(math.Float64bits(x)) }

// dec is the matching bounds-checked decoder; the first out-of-bounds read
// latches err and zero-fills every later read.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.err = fmt.Errorf("%w: truncated payload (want %d bytes at offset %d of %d)",
			ErrCorrupt, n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// intLen guards a decoded length field before it sizes an allocation: it
// must fit the remaining payload, so a corrupt length cannot demand memory.
func (d *dec) intLen(x uint64, unit int) int {
	if d.err != nil {
		return 0
	}
	rem := len(d.b) - d.off
	if unit < 1 || x > uint64(rem)/uint64(unit) {
		d.err = fmt.Errorf("%w: length %d exceeds remaining %d bytes", ErrCorrupt, x, rem)
		return 0
	}
	return int(x)
}

func encodeMeta(s *Snapshot) []byte {
	var e enc
	e.u64(s.Seq)
	e.u64(s.Gen)
	e.i64(s.SavedUnixNano)
	e.u64(s.BaseFP)
	p := s.Params
	e.f64(p.Epsilon)
	e.i64(int64(p.Dim))
	e.i64(p.Seed)
	e.i64(int64(p.HullMaxVertices))
	return e.b
}

func decodeMeta(b []byte, s *Snapshot) error {
	d := dec{b: b}
	s.Seq = d.u64()
	s.Gen = d.u64()
	s.SavedUnixNano = d.i64()
	s.BaseFP = d.u64()
	s.Params.Epsilon = d.f64()
	s.Params.Dim = int(d.i64())
	s.Params.Seed = d.i64()
	s.Params.HullMaxVertices = int(d.i64())
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in meta section", ErrCorrupt, len(b)-d.off)
	}
	return nil
}

func encodeGraph(g *graph.Graph) []byte {
	e := enc{b: make([]byte, 0, 16+8*g.M())}
	e.u64(uint64(g.N()))
	e.u64(uint64(g.M()))
	g.EachEdge(func(u, v int) bool {
		e.u32(uint32(u))
		e.u32(uint32(v))
		return true
	})
	return e.b
}

func decodeGraph(b []byte) (*graph.Graph, error) {
	d := dec{b: b}
	n := d.u64()
	m := d.u64()
	if d.err != nil {
		return nil, d.err
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("%w: graph n=%d too large", ErrCorrupt, n)
	}
	mm := d.intLen(m, 8)
	if d.err != nil {
		return nil, d.err
	}
	// Only connected graphs are served, and a connected graph has n ≤ m+1;
	// m is bounded by the payload, so n cannot demand memory either.
	if n > uint64(mm)+1 {
		return nil, fmt.Errorf("%w: graph n=%d exceeds m+1 for m=%d", ErrCorrupt, n, mm)
	}
	g := graph.New(int(n))
	for i := 0; i < mm; i++ {
		u := d.u32()
		v := d.u32()
		if d.err != nil {
			return nil, d.err
		}
		if err := g.AddEdge(int(u), int(v)); err != nil {
			return nil, fmt.Errorf("%w: edge %d: %v", ErrCorrupt, i, err)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in graph section", ErrCorrupt, len(b)-d.off)
	}
	return g, nil
}

// encodeSketch writes the sketch section: the build fields and the point
// count, the points, then M and the sign-word count, and the sign words,
// each 8 bytes. The payload's size follows from those lists, so the
// encoding allocates once.
func encodeSketch(meta sketch.Meta, points []float64, signs []uint64) []byte {
	st := meta.Stats
	head := [...]uint64{
		uint64(meta.Dim), uint64(meta.N), math.Float64bits(meta.Epsilon), uint64(meta.Updates),
		uint64(st.Rows), uint64(st.TotalIters), uint64(st.MaxIters), math.Float64bits(st.MaxResidual),
		uint64(st.Workers), uint64(len(points)),
	}
	mid := [...]uint64{uint64(meta.M), uint64(len(signs))}
	e := enc{b: make([]byte, 0, 8*(len(head)+len(points)+len(mid)+len(signs)))}
	for _, x := range head {
		e.u64(x)
	}
	for _, x := range points {
		e.f64(x)
	}
	for _, x := range mid {
		e.u64(x)
	}
	for _, w := range signs {
		e.u64(w)
	}
	return e.b
}

// decodeSketch reads the sketch section. The seed that draws added edges'
// columns is not in it: ReadSnapshot takes it from the meta section's
// Params.
func decodeSketch(b []byte, s *Snapshot) error {
	d := dec{b: b}
	s.SketchMeta.Dim = int(d.i64())
	s.SketchMeta.N = int(d.i64())
	s.SketchMeta.Epsilon = d.f64()
	s.SketchMeta.Updates = int(d.i64())
	s.SketchMeta.Stats.Rows = int(d.i64())
	s.SketchMeta.Stats.TotalIters = int(d.i64())
	s.SketchMeta.Stats.MaxIters = int(d.i64())
	s.SketchMeta.Stats.MaxResidual = d.f64()
	s.SketchMeta.Stats.Workers = int(d.i64())
	k := d.intLen(d.u64(), 8)
	s.Points = make([]float64, k)
	for i := range s.Points {
		s.Points[i] = d.f64()
	}
	s.SketchMeta.M = int(d.i64())
	k = d.intLen(d.u64(), 8)
	s.Signs = make([]uint64, k)
	for i := range s.Signs {
		s.Signs[i] = d.u64()
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in sketch section", ErrCorrupt, len(b)-d.off)
	}
	return nil
}

func encodeHull(s *Snapshot) []byte {
	var e enc
	e.u64(uint64(len(s.Boundary)))
	for _, v := range s.Boundary {
		e.u32(uint32(v))
	}
	e.f64(s.Diameter)
	if s.Certified {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i64(int64(s.Rounds))
	return e.b
}

func decodeHull(b []byte, s *Snapshot) error {
	d := dec{b: b}
	l := d.intLen(d.u64(), 4)
	s.Boundary = make([]int, l)
	for i := range s.Boundary {
		s.Boundary[i] = int(d.u32())
	}
	s.Diameter = d.f64()
	s.Certified = d.u8() != 0
	s.Rounds = int(d.i64())
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in hull section", ErrCorrupt, len(b)-d.off)
	}
	return nil
}

func writeSection(w io.Writer, kind uint32, payload []byte) error {
	var hdr enc
	hdr.u32(kind)
	hdr.u64(uint64(len(payload)))
	if _, err := w.Write(hdr.b); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var tail enc
	tail.u32(crc32.Checksum(payload, castagnoli))
	_, err := w.Write(tail.b)
	return err
}

// WriteSnapshot writes the full snapshot encoding to w.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	sections := []struct {
		kind    uint32
		payload []byte
	}{
		{secMeta, encodeMeta(s)},
		{secGraph, encodeGraph(s.Graph)},
		{secSketch, encodeSketch(s.SketchMeta, s.Points, s.Signs)},
		{secHull, encodeHull(s)},
	}
	var hdr enc
	hdr.b = append(hdr.b, snapshotMagic...)
	hdr.u32(FormatVersion)
	hdr.u32(uint32(len(sections)))
	if _, err := w.Write(hdr.b); err != nil {
		return err
	}
	for _, sec := range sections {
		if err := writeSection(w, sec.kind, sec.payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotFile writes the snapshot atomically: a temp file in the same
// directory, fsync, rename over path, then a directory fsync — so path
// either keeps its old content or holds the complete new snapshot, never a
// torn write.
func WriteSnapshotFile(path string, s *Snapshot) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("persist: snapshot temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// Every section payload is already in memory, and a bufio.Writer hands
	// a write larger than its buffer straight to the file, so the default
	// size only gathers the small section headers.
	bw := bufio.NewWriter(tmp)
	if err = WriteSnapshot(bw, s); err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	if err = bw.Flush(); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// tmpPrefix marks in-progress writes; Open sweeps leftovers from crashes.
const tmpPrefix = ".persist-tmp-"

// syncDir fsyncs a directory so a just-renamed file is durable. Filesystems
// that do not support directory fsync (EINVAL/ENOTSUP) are tolerated — there
// is nothing more to do there — but a real I/O error is surfaced: swallowing
// it would acknowledge a checkpoint whose rename may not survive a crash.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	if err := df.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("persist: fsync %s: %w", dir, err)
	}
	return nil
}

// section is one framed snapshot section as found on disk.
type section struct {
	kind    uint32
	payload []byte
	crcOK   bool
}

// errHeader is the framing fault of bytes that do not open with the
// snapshot magic and a whole version field.
var errHeader = fmt.Errorf("%w: bad magic or truncated header", ErrCorrupt)

// scanSections walks an encoded snapshot in file order: the header, then
// each section's kind, length, payload and CRC. It returns the format
// version, every section it could frame with its CRC verdict, and the first
// framing fault: errHeader, a truncation, or bytes after the last section.
// A foreign version does not stop the walk. The declared section count
// sizes nothing: each framed section takes at least 16 bytes of b.
func scanSections(b []byte) (version uint32, secs []section, err error) {
	d := dec{b: b}
	if string(d.take(len(snapshotMagic))) != snapshotMagic {
		return 0, nil, errHeader
	}
	if version = d.u32(); d.err != nil {
		return 0, nil, errHeader
	}
	for count := d.u32(); d.err == nil && uint32(len(secs)) < count; {
		kind := d.u32()
		payload := d.take(d.intLen(d.u64(), 1))
		sum := d.u32()
		if d.err == nil {
			secs = append(secs, section{kind, payload, crc32.Checksum(payload, castagnoli) == sum})
		}
	}
	if d.err != nil {
		return version, secs, d.err
	}
	if d.off != len(b) {
		return version, secs, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(b)-d.off)
	}
	return version, secs, nil
}

// readSections holds the framing walk to recovery's standard and returns
// the CRC-verified payload per section kind. Strict, in this order: a
// foreign version fails with ErrVersion; then, section by section, an
// unknown kind, a duplicate kind or a bad checksum fails with ErrCorrupt;
// then so does the walk's framing fault.
func readSections(b []byte) (map[uint32][]byte, error) {
	version, secs, err := scanSections(b)
	if errors.Is(err, errHeader) {
		return nil, err
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot format v%d, reader supports v%d", ErrVersion, version, FormatVersion)
	}
	payloads := make(map[uint32][]byte, secHull)
	for _, sec := range secs {
		if sec.kind < secMeta || sec.kind > secHull {
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, sec.kind)
		}
		if _, dup := payloads[sec.kind]; dup {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrCorrupt, sec.kind)
		}
		if !sec.crcOK {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, sec.kind)
		}
		payloads[sec.kind] = sec.payload
	}
	if err != nil {
		return nil, err
	}
	return payloads, nil
}

// ReadSnapshot decodes and fully validates an encoded snapshot.
func ReadSnapshot(b []byte) (*Snapshot, error) {
	secs, err := readSections(b)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{}
	for _, kind := range []uint32{secMeta, secGraph, secSketch, secHull} {
		if secs[kind] == nil {
			return nil, fmt.Errorf("%w: missing section kind %d", ErrCorrupt, kind)
		}
	}
	if err := decodeMeta(secs[secMeta], s); err != nil {
		return nil, err
	}
	g, err := decodeGraph(secs[secGraph])
	if err != nil {
		return nil, err
	}
	s.Graph = g
	if err := decodeSketch(secs[secSketch], s); err != nil {
		return nil, err
	}
	s.SketchMeta.Seed = s.Params.Seed
	if err := decodeHull(secs[secHull], s); err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ReadSnapshotFile reads and validates a snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := ReadSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return s, nil
}
