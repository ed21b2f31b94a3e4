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

	"resistecc/internal/ecc"
	"resistecc/internal/graph"
	"resistecc/internal/hull"
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

// chunk is the size of the buffer a snapshot streams through: past bufio's
// default 4 KB, so a bufio.Writer hands each full chunk straight to the
// file, and a sketch section of several MB costs a few hundred writes.
const chunk = 64 << 10

// enc is a little-endian encoder that streams to w: values gather in b, and
// whenever b nears its capacity it is written out and folded into the
// running CRC-32C, so a payload of any size takes one chunk of memory. The
// first write error latches in err.
type enc struct {
	w   io.Writer
	b   []byte
	n   uint64 // bytes written since the section's payload began
	crc uint32 // CRC-32C of those bytes
	err error
}

func (e *enc) u8(x uint8)    { e.b = append(e.b, x); e.spill() }
func (e *enc) u32(x uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, x); e.spill() }
func (e *enc) u64(x uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, x); e.spill() }
func (e *enc) i64(x int64)   { e.u64(uint64(x)) }
func (e *enc) f64(x float64) { e.u64(math.Float64bits(x)) }

// spill writes b out once the next value might not fit it.
func (e *enc) spill() {
	if len(e.b) > cap(e.b)-8 {
		e.flush()
	}
}

func (e *enc) flush() {
	if e.err == nil && len(e.b) > 0 {
		e.crc = crc32.Update(e.crc, castagnoli, e.b)
		e.n += uint64(len(e.b))
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

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

func encodeMeta(e *enc, s *Snapshot) {
	e.u64(s.Seq)
	e.u64(s.Gen)
	e.i64(s.SavedUnixNano)
	e.u64(s.BaseFP)
	p := s.Params
	e.f64(p.Epsilon)
	e.i64(int64(p.Dim))
	e.i64(p.Seed)
	e.i64(int64(p.HullMaxVertices))
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

func encodeGraph(e *enc, g *graph.Graph) {
	e.u64(uint64(g.N()))
	e.u64(uint64(g.M()))
	g.EachEdge(func(u, v int) bool {
		e.u32(uint32(u))
		e.u32(uint32(v))
		return true
	})
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
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: graph: %v", ErrCorrupt, err)
	}
	return g, nil
}

// encodeSketch writes the sketch section from the generation itself: the
// build fields and the point count, the points row by row, then M and the
// sign-word count, and the sign words, each 8 bytes.
func encodeSketch(e *enc, sk *sketch.Sketch) {
	meta := sk.Meta()
	st := meta.Stats
	for _, x := range [...]uint64{
		uint64(meta.Dim), uint64(meta.N), math.Float64bits(meta.Epsilon), uint64(meta.Updates),
		uint64(st.Rows), uint64(st.TotalIters), uint64(st.MaxIters), math.Float64bits(st.MaxResidual),
		uint64(st.Workers), uint64(meta.N * meta.Dim),
	} {
		e.u64(x)
	}
	for _, p := range sk.Points() {
		for _, x := range p {
			e.f64(x)
		}
	}
	signs := sk.Signs()
	e.u64(uint64(meta.M))
	e.u64(uint64(len(signs)))
	for _, w := range signs {
		e.u64(w)
	}
}

// decodeSketch reads the sketch section: the build fields, the point matrix
// and the projection's sign words, each count bounded by the payload. The
// seed that draws added edges' columns is not in it: ReadSnapshot takes it
// from the meta section's Params. The shape is sketch.Restore's to check.
func decodeSketch(b []byte) (meta sketch.Meta, pts []float64, signs []uint64, err error) {
	d := dec{b: b}
	meta.Dim = int(d.i64())
	meta.N = int(d.i64())
	meta.Epsilon = d.f64()
	meta.Updates = int(d.i64())
	meta.Stats.Rows = int(d.i64())
	meta.Stats.TotalIters = int(d.i64())
	meta.Stats.MaxIters = int(d.i64())
	meta.Stats.MaxResidual = d.f64()
	meta.Stats.Workers = int(d.i64())
	pts = make([]float64, d.intLen(d.u64(), 8))
	for i := range pts {
		pts[i] = d.f64()
	}
	meta.M = int(d.i64())
	signs = make([]uint64, d.intLen(d.u64(), 8))
	for i := range signs {
		signs[i] = d.u64()
	}
	if d.err != nil {
		return meta, nil, nil, d.err
	}
	if d.off != len(b) {
		return meta, nil, nil, fmt.Errorf("%w: %d trailing bytes in sketch section", ErrCorrupt, len(b)-d.off)
	}
	return meta, pts, signs, nil
}

func encodeHull(e *enc, f *ecc.Fast) {
	e.u64(uint64(len(f.Boundary)))
	for _, v := range f.Boundary {
		e.u32(uint32(v))
	}
	e.f64(f.HullInfo.Diameter)
	if f.HullInfo.Certified {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.i64(int64(f.HullInfo.Rounds))
}

// decodeHull reads the hull section as the hull.Result it was written from.
func decodeHull(b []byte) (*hull.Result, error) {
	d := dec{b: b}
	res := &hull.Result{Vertices: make([]int, d.intLen(d.u64(), 4))}
	for i := range res.Vertices {
		res.Vertices[i] = int(d.u32())
	}
	res.Diameter = d.f64()
	res.Certified = d.u8() != 0
	res.Rounds = int(d.i64())
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes in hull section", ErrCorrupt, len(b)-d.off)
	}
	return res, nil
}

// writeSection writes one section through e: its kind and payload length,
// the payload body encodes, with its CRC-32C computed as the bytes go out,
// and the CRC. The length goes out first, so a body that encodes other than
// size bytes fails the write.
func writeSection(e *enc, kind uint32, size uint64, body func()) {
	e.u32(kind)
	e.u64(size)
	e.flush()
	e.n, e.crc = 0, 0
	body()
	e.flush()
	if e.err == nil && e.n != size {
		e.err = fmt.Errorf("persist: section %d encoded %d bytes, declared %d", kind, e.n, size)
	}
	e.u32(e.crc)
}

// WriteSnapshot writes s's encoding to w. Every section streams from the
// cut's graph and generation through one chunk-sized buffer, its CRC
// computed as it is written, so a checkpoint makes no copy of the sketch.
// Each payload's length follows from what it holds: meta's eight fields;
// the graph's n, m and m edges; the sketch's twelve fields and counts, n·d
// points and d·⌈m/64⌉ sign words; the hull's count, l ids, diameter,
// certified byte and rounds.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	g, f, sk := s.Graph, s.Fast, s.Fast.Sk
	e := &enc{w: w, b: make([]byte, 0, chunk)}
	e.b = append(e.b, snapshotMagic...)
	e.u32(FormatVersion)
	e.u32(4) // section count
	writeSection(e, secMeta, 64, func() { encodeMeta(e, s) })
	writeSection(e, secGraph, 16+8*uint64(g.M()), func() { encodeGraph(e, g) })
	writeSection(e, secSketch, 8*(12+uint64(sk.N*sk.Dim+len(sk.Signs()))), func() { encodeSketch(e, sk) })
	writeSection(e, secHull, 25+4*uint64(len(f.Boundary)), func() { encodeHull(e, f) })
	e.flush()
	return e.err
}

// WriteSnapshotFile writes the snapshot atomically: WriteSnapshot streams
// it into a temp file in the same directory, then fsync, rename over path,
// and a directory fsync — so path either keeps its old content or holds the
// complete new snapshot, never a torn write. A write that fails partway
// removes the temp file.
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
	// Payloads stream out in chunks larger than a bufio.Writer's default
	// buffer, which it hands straight to the file, so that buffer only
	// gathers the section frames and the small meta and hull payloads.
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

// ReadSnapshot decodes an encoded snapshot and restores its generation
// once. It accepts only a snapshot that restores: every section decodes,
// the sections agree with each other (validate), and sketch.Restore takes
// the sketch; a sketch it refuses, such as one whose ε lies outside (0,1),
// is ErrCorrupt.
func ReadSnapshot(b []byte) (*Snapshot, error) {
	secs, err := readSections(b)
	if err != nil {
		return nil, err
	}
	for _, kind := range []uint32{secMeta, secGraph, secSketch, secHull} {
		if secs[kind] == nil {
			return nil, fmt.Errorf("%w: missing section kind %d", ErrCorrupt, kind)
		}
	}
	s := &Snapshot{}
	if err := decodeMeta(secs[secMeta], s); err != nil {
		return nil, err
	}
	g, err := decodeGraph(secs[secGraph])
	if err != nil {
		return nil, err
	}
	meta, pts, signs, err := decodeSketch(secs[secSketch])
	if err != nil {
		return nil, err
	}
	meta.Seed = s.Params.Seed
	hres, err := decodeHull(secs[secHull])
	if err != nil {
		return nil, err
	}
	if err := validate(g, meta, hres.Vertices); err != nil {
		return nil, err
	}
	sk, err := sketch.Restore(meta, pts, signs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	s.Graph = g
	s.Fast = &ecc.Fast{Sk: sk, Boundary: hres.Vertices, HullInfo: hres}
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
