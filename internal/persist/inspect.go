package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// SectionInfo describes one snapshot section as found on disk.
type SectionInfo struct {
	Kind    uint32
	Name    string
	Bytes   int
	CRCOK   bool
	Details string
}

// Report is a tolerant description of a snapshot file for operators: it
// keeps going past checksum failures so `recc inspect` can show what is
// wrong, while Valid summarizes whether recovery would accept the file.
type Report struct {
	Path     string
	Size     int64
	Version  uint32
	Sections []SectionInfo
	Valid    bool
	Err      string // first validation error, "" when Valid

	// Populated when the meta + graph sections decode.
	Seq, Gen  uint64
	SavedAt   time.Time
	BaseFP    uint64
	Params    Params
	N, M      int
	Dim       int
	BoundaryL int
}

func sectionName(kind uint32) string {
	switch kind {
	case secMeta:
		return "meta"
	case secGraph:
		return "graph"
	case secSketch:
		return "sketch"
	case secHull:
		return "hull"
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// InspectSnapshot examines a snapshot file without requiring it to be
// valid. The returned report is best-effort; Err carries the first reason
// recovery would reject the file.
func InspectSnapshot(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{Path: path, Size: int64(len(b))}

	d := dec{b: b}
	magic := d.take(8)
	if d.err != nil || string(magic) != snapshotMagic {
		rep.Err = "bad magic (not a snapshot file)"
		return rep, nil
	}
	rep.Version = d.u32()
	count := d.u32()
	if d.err != nil {
		rep.Err = "truncated header"
		return rep, nil
	}
	if rep.Version != FormatVersion {
		rep.Err = fmt.Sprintf("format v%d, reader supports v%d", rep.Version, FormatVersion)
	}
	for i := uint32(0); i < count && d.err == nil; i++ {
		kind := d.u32()
		plen := d.intLen(d.u64(), 1)
		payload := d.take(plen)
		sum := d.u32()
		if d.err != nil {
			if rep.Err == "" {
				rep.Err = fmt.Sprintf("truncated in section %d", i+1)
			}
			break
		}
		info := SectionInfo{
			Kind:  kind,
			Name:  sectionName(kind),
			Bytes: len(payload),
			CRCOK: crc32.Checksum(payload, castagnoli) == sum,
		}
		if !info.CRCOK && rep.Err == "" {
			rep.Err = fmt.Sprintf("section %q checksum mismatch", info.Name)
		}
		if info.CRCOK {
			var s Snapshot
			switch kind {
			case secMeta:
				if decodeMeta(payload, &s) == nil {
					rep.Seq, rep.Gen = s.Seq, s.Gen
					rep.SavedAt = time.Unix(0, s.SavedUnixNano)
					rep.BaseFP = s.BaseFP
					rep.Params = s.Params
					info.Details = fmt.Sprintf("seq=%d gen=%d eps=%g dim=%d seed=%d",
						s.Seq, s.Gen, s.Params.Epsilon, s.Params.Dim, s.Params.Seed)
				}
			case secGraph:
				if g, gerr := decodeGraph(payload); gerr == nil {
					rep.N, rep.M = g.N(), g.M()
					info.Details = fmt.Sprintf("n=%d m=%d", g.N(), g.M())
				}
			case secSketch:
				if decodeSketch(payload, &s) == nil {
					rep.Dim = s.SketchMeta.Dim
					info.Details = fmt.Sprintf("d=%d n=%d drift=%g updates=%d",
						s.SketchMeta.Dim, s.SketchMeta.N, s.SketchMeta.Drift, s.SketchMeta.Updates)
				}
			case secHull:
				if decodeHull(payload, &s) == nil {
					rep.BoundaryL = len(s.Boundary)
					info.Details = fmt.Sprintf("l=%d diameter=%.6g certified=%v",
						len(s.Boundary), s.Diameter, s.Certified)
				}
			}
		}
		rep.Sections = append(rep.Sections, info)
	}
	if rep.Err == "" {
		// Authoritative answer: exactly what recovery would decide.
		if _, rerr := ReadSnapshot(b); rerr != nil {
			rep.Err = rerr.Error()
		} else {
			rep.Valid = true
		}
	}
	return rep, nil
}

// WALInfo summarizes a WAL file for operators.
type WALInfo struct {
	Path     string
	Size     int64
	Version  uint32 // 0 when the header is missing or foreign
	Records  int
	FirstSeq uint64
	LastSeq  uint64
	// TornBytes counts trailing bytes past the valid prefix (0 for a clean
	// log); recovery discards them.
	TornBytes int64
}

// InspectWAL reads the valid prefix of a WAL file.
func InspectWAL(path string) (*WALInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var version uint32
	var hdr [walHeaderSize]byte
	// ReadAt leaves the scan offset at 0; the version is reported even when
	// scanWAL rejects the rest of the header.
	if n, _ := f.ReadAt(hdr[:], 0); n == walHeaderSize && string(hdr[:8]) == WALMagic {
		version = getU32(hdr[8:12])
	}
	recs, validSize, err := scanWAL(f)
	// A foreign version is reported, not failed: recovery resets such a log
	// (loadWAL), so all of it counts as discarded.
	if err != nil && !errors.Is(err, ErrVersion) {
		return nil, err
	}
	info := &WALInfo{Path: path, Size: fi.Size(), Version: version, Records: len(recs), TornBytes: fi.Size() - validSize}
	if validSize == 0 {
		info.TornBytes = fi.Size()
	}
	if len(recs) > 0 {
		info.FirstSeq = recs[0].Seq
		info.LastSeq = recs[len(recs)-1].Seq
	}
	return info, nil
}

// TailInfo is a tolerant description of a tail-fetch frame (the wire format
// of GET /v1/repl/wal, sometimes captured to disk for debugging). Like
// Report it keeps going past checksum failures so `recc inspect` can show
// what is wrong; Valid summarizes whether a replica would apply the frame.
type TailInfo struct {
	Path    string
	Size    int64
	Version uint32

	// Header fields, trustworthy only when HeaderOK (the header CRC held).
	HeaderOK  bool
	LastSeq   uint64 // newest sequence the writer's store holds
	WriterGen uint64
	SnapSeq   uint64
	SnapGen   uint64
	Declared  int // record count the header declares

	// The verified record prefix: records whose own checksums hold and whose
	// sequences stay contiguous. A replica applies all of Declared or
	// nothing, so Records < Declared always means Valid is false.
	Records           int
	FirstRec, LastRec uint64
	TornBytes         int64 // bytes past the verified prefix

	Valid bool
	Err   string // first reason a replica would reject the frame, "" when Valid
}

// InspectTail examines a tail-frame file without requiring it to be valid.
func InspectTail(path string) (*TailInfo, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	info := &TailInfo{Path: path, Size: int64(len(b))}
	if len(b) < tailHeaderSize || string(b[0:8]) != TailMagic {
		info.Err = "bad or truncated tail-frame header"
		info.TornBytes = info.Size
		return info, nil
	}
	info.Version = getU32(b[8:12])
	if crc32.Checksum(b[:48], castagnoli) == getU32(b[48:52]) {
		info.HeaderOK = true
		info.LastSeq = getU64(b[12:20])
		info.WriterGen = getU64(b[20:28])
		info.SnapSeq = getU64(b[28:36])
		info.SnapGen = getU64(b[36:44])
		info.Declared = int(getU32(b[44:48]))
	}
	off := tailHeaderSize
	for info.Records < info.Declared && off+walRecordSize <= len(b) {
		rec, ok := decodeRecord(b[off : off+walRecordSize])
		if !ok || (info.Records > 0 && rec.Seq != info.LastRec+1) {
			break
		}
		if info.Records == 0 {
			info.FirstRec = rec.Seq
		}
		info.LastRec = rec.Seq
		info.Records++
		off += walRecordSize
	}
	info.TornBytes = int64(len(b) - off)
	// Authoritative answer: exactly what a replica would decide.
	if _, derr := DecodeTailFrame(b); derr != nil {
		info.Err = derr.Error()
	} else {
		info.Valid = true
	}
	return info, nil
}

// InspectDir summarizes a store directory: every snapshot file (newest
// first) plus the WAL.
func InspectDir(dir string) ([]*Report, *WALInfo, error) {
	st := &Store{dir: dir}
	var reps []*Report
	for _, name := range st.snapshotFiles() {
		rep, err := InspectSnapshot(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, rep)
	}
	walPath := filepath.Join(dir, "wal.log")
	wi, err := InspectWAL(walPath)
	if err != nil {
		if os.IsNotExist(err) {
			return reps, nil, nil
		}
		return nil, nil, err
	}
	return reps, wi, nil
}
