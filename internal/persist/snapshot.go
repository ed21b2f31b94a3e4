//recclint:deterministic — snapshot encodings must be byte-identical for identical state.

package persist

import (
	"bufio"
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
// Sections appear in kind order; the eccentricity cache is optional. The
// whole payload of a section is covered by its CRC, so a torn write or a
// flipped bit anywhere is detected before any decoded value is trusted.
const snapshotMagic = "RECCSNP1"

const (
	secMeta   = 1
	secGraph  = 2
	secSketch = 3
	secHull   = 4
	secEcc    = 5
)

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc is a little-endian append-only byte encoder.
type enc struct{ b []byte }

func (e *enc) u8(x uint8) { e.b = append(e.b, x) }
func (e *enc) u32(x uint32) {
	e.b = append(e.b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}
func (e *enc) u64(x uint64) {
	e.b = append(e.b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
		byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
}
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
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
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
	e.f64(p.SolverTol)
	e.f64(p.HullTheta)
	e.i64(p.HullSeed)
	e.i64(int64(p.HullDirections))
	e.i64(int64(p.HullMaxVertices))
	e.i64(int64(p.HullMaxFWIters))
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
	s.Params.SolverTol = d.f64()
	s.Params.HullTheta = d.f64()
	s.Params.HullSeed = d.i64()
	s.Params.HullDirections = int(d.i64())
	s.Params.HullMaxVertices = int(d.i64())
	s.Params.HullMaxFWIters = int(d.i64())
	return d.err
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

func encodeSketch(meta sketch.Meta, points []float64) []byte {
	e := enc{b: make([]byte, 0, 80+8*len(points))}
	e.i64(int64(meta.Dim))
	e.i64(int64(meta.N))
	e.f64(meta.Epsilon)
	e.f64(meta.Drift)
	e.i64(int64(meta.Updates))
	e.i64(int64(meta.Stats.Rows))
	e.i64(int64(meta.Stats.TotalIters))
	e.i64(int64(meta.Stats.MaxIters))
	e.f64(meta.Stats.MaxResidual)
	e.i64(int64(meta.Stats.Workers))
	e.u64(uint64(len(points)))
	for _, x := range points {
		e.f64(x)
	}
	return e.b
}

func decodeSketch(b []byte, s *Snapshot) error {
	d := dec{b: b}
	s.SketchMeta.Dim = int(d.i64())
	s.SketchMeta.N = int(d.i64())
	s.SketchMeta.Epsilon = d.f64()
	s.SketchMeta.Drift = d.f64()
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

func encodeEcc(ecc []float64) []byte {
	e := enc{b: make([]byte, 0, 8+8*len(ecc))}
	e.u64(uint64(len(ecc)))
	for _, x := range ecc {
		e.f64(x)
	}
	return e.b
}

func decodeEcc(b []byte, s *Snapshot) error {
	d := dec{b: b}
	n := d.intLen(d.u64(), 8)
	s.Ecc = make([]float64, n)
	for i := range s.Ecc {
		s.Ecc[i] = d.f64()
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("%w: %d trailing bytes in ecc section", ErrCorrupt, len(b)-d.off)
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
		{secSketch, encodeSketch(s.SketchMeta, s.Points)},
		{secHull, encodeHull(s)},
	}
	if s.Ecc != nil {
		sections = append(sections, struct {
			kind    uint32
			payload []byte
		}{secEcc, encodeEcc(s.Ecc)})
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
	bw := bufio.NewWriterSize(tmp, 1<<20)
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

// readSections parses the framing of an encoded snapshot and returns the
// CRC-verified payload per section kind. Strict: unknown kinds, duplicate
// kinds, bad checksums and truncations all fail with ErrCorrupt.
func readSections(b []byte) (map[uint32][]byte, error) {
	d := dec{b: b}
	magic := d.take(8)
	if d.err != nil || string(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := d.u32(); v != FormatVersion {
		if d.err != nil {
			return nil, d.err
		}
		return nil, fmt.Errorf("%w: snapshot format v%d, reader supports v%d", ErrVersion, v, FormatVersion)
	}
	count := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	// Each kind appears at most once, so a larger count is corrupt; checked
	// before it sizes the map.
	if count > secEcc {
		return nil, fmt.Errorf("%w: %d sections, at most %d kinds exist", ErrCorrupt, count, secEcc)
	}
	secs := make(map[uint32][]byte, count)
	for i := uint32(0); i < count; i++ {
		kind := d.u32()
		plen := d.intLen(d.u64(), 1)
		payload := d.take(plen)
		sum := d.u32()
		if d.err != nil {
			return nil, d.err
		}
		if kind < secMeta || kind > secEcc {
			return nil, fmt.Errorf("%w: unknown section kind %d", ErrCorrupt, kind)
		}
		if _, dup := secs[kind]; dup {
			return nil, fmt.Errorf("%w: duplicate section kind %d", ErrCorrupt, kind)
		}
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, fmt.Errorf("%w: section %d checksum mismatch (got %08x, want %08x)",
				ErrCorrupt, kind, got, sum)
		}
		secs[kind] = payload
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes after last section", ErrCorrupt, len(b)-d.off)
	}
	return secs, nil
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
	if err := decodeHull(secs[secHull], s); err != nil {
		return nil, err
	}
	if p := secs[secEcc]; p != nil {
		if err := decodeEcc(p, s); err != nil {
			return nil, err
		}
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
