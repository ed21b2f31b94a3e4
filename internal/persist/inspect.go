package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// SectionInfo describes one snapshot section as found on disk.
type SectionInfo struct {
	Kind    uint32
	Name    string
	Bytes   int
	CRCOK   bool
	Details string // what its decoder found, or "does not decode"; "" if the CRC fails
}

// Report describes a snapshot file for operators: every section the
// framing walk finds, with its checksum verdict and what recovery's own
// section decoders make of it, next to ReadSnapshot's verdict on the file.
type Report struct {
	Path     string
	Size     int64
	Version  uint32
	Sections []SectionInfo
	Valid    bool
	Err      string // ReadSnapshot's error, "" when Valid
	// Meta is the decoded meta section: sequence, generation, save time,
	// fingerprint and build parameters. Nil when no meta section decodes.
	Meta *Snapshot
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
// valid. Valid and Err are exactly what recovery decides.
func InspectSnapshot(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return inspectSnapshot(path, b), nil
}

func inspectSnapshot(path string, b []byte) *Report {
	rep := &Report{Path: path, Size: int64(len(b))}
	// The walk's framing fault is part of ReadSnapshot's verdict below.
	var secs []section
	rep.Version, secs, _ = scanSections(b)
	if _, err := ReadSnapshot(b); err != nil {
		rep.Err = err.Error()
	} else {
		rep.Valid = true
	}
	for _, sec := range secs {
		info := SectionInfo{Kind: sec.kind, Name: sectionName(sec.kind), Bytes: len(sec.payload), CRCOK: sec.crcOK}
		if sec.crcOK {
			info.Details = rep.describe(sec)
		}
		rep.Sections = append(rep.Sections, info)
	}
	return rep
}

// describe summarizes a CRC-valid section as its decoder reads it, or says
// that it does not decode. A meta section that decodes becomes rep.Meta.
func (rep *Report) describe(sec section) string {
	switch sec.kind {
	case secMeta:
		var s Snapshot
		if decodeMeta(sec.payload, &s) == nil {
			rep.Meta = &s
			return fmt.Sprintf("seq=%d gen=%d eps=%g dim=%d seed=%d",
				s.Seq, s.Gen, s.Params.Epsilon, s.Params.Dim, s.Params.Seed)
		}
	case secGraph:
		if g, err := decodeGraph(sec.payload); err == nil {
			return fmt.Sprintf("n=%d m=%d", g.N(), g.M())
		}
	case secSketch:
		if meta, _, _, err := decodeSketch(sec.payload); err == nil {
			return fmt.Sprintf("d=%d n=%d m=%d updates=%d", meta.Dim, meta.N, meta.M, meta.Updates)
		}
	case secHull:
		if h, err := decodeHull(sec.payload); err == nil {
			return fmt.Sprintf("l=%d diameter=%.6g certified=%v", len(h.Vertices), h.Diameter, h.Certified)
		}
	default:
		return ""
	}
	return "does not decode"
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
	version, recs, validSize, err := scanWAL(f)
	// A foreign version is reported, not failed: recovery resets such a log
	// (loadWAL), so all of it counts as discarded.
	if err != nil && !errors.Is(err, ErrVersion) {
		return nil, err
	}
	info := &WALInfo{Path: path, Size: fi.Size(), Version: version, Records: len(recs), TornBytes: fi.Size() - validSize}
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
	return inspectTail(path, b), nil
}

func inspectTail(path string, b []byte) *TailInfo {
	info := &TailInfo{Path: path, Size: int64(len(b))}
	s, _ := scanTail(b) // a header fault is part of DecodeTailFrame's verdict below
	info.Version, info.HeaderOK, info.Declared = s.version, s.headerOK, s.declared
	f := s.frame
	info.LastSeq, info.WriterGen, info.SnapSeq, info.SnapGen = f.LastSeq, f.WriterGen, f.SnapSeq, f.SnapGen
	if info.Records = len(f.Records); info.Records > 0 {
		info.FirstRec, info.LastRec = f.Records[0].Seq, f.Records[info.Records-1].Seq
	}
	info.TornBytes = int64(len(b) - s.end)
	// Authoritative answer: exactly what a replica would decide.
	if _, err := DecodeTailFrame(b); err != nil {
		info.Err = err.Error()
	} else {
		info.Valid = true
	}
	return info
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
