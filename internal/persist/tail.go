//recclint:deterministic — tail frames must encode byte-identically for identical state.

package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Tail-fetch frame layout (the wire format of GET /v1/repl/wal):
//
//	magic "RECCTAL1" | u32 format version
//	u64 lastSeq | u64 writerGen | u64 snapSeq | u64 snapGen
//	u32 record count | u32 CRC32-C over the 44 header bytes before it
//	count × 21-byte WAL records (each self-checksummed, see wal.go)
//
// The header CRC catches truncated or bit-flipped transfers before any
// record is trusted; each record then re-verifies its own WAL checksum, and
// the decoder enforces strict sequence contiguity — a frame can be either
// applied in full or rejected, never half-trusted.
const (
	// TailMagic is the 8-byte tag that opens every tail-fetch frame; `recc
	// inspect` sniffs it to dispatch between the on-disk formats.
	TailMagic = "RECCTAL1"

	tailHeaderSize = 8 + 4 + 8 + 8 + 8 + 8 + 4 + 4
)

// TailFrame is one decoded tail-fetch response.
type TailFrame struct {
	// LastSeq is the newest sequence the writer's store holds; with a capped
	// Records list it exceeds the last record's sequence, letting the
	// replica compute lag and keep fetching without an extra round trip.
	LastSeq uint64
	// WriterGen is the writer's served index generation when the frame was
	// cut. A replica that has applied every record up to LastSeq but serves
	// a different generation has diverged (the writer rebuilt) and must
	// re-base on a fresh snapshot.
	WriterGen uint64
	// SnapSeq/SnapGen identify the writer's newest on-disk snapshot — the
	// base a resyncing replica would restore.
	SnapSeq, SnapGen uint64
	// Records is the contiguous mutation run (possibly empty).
	Records []Record
}

// EncodeTailFrame serializes f.
func EncodeTailFrame(f TailFrame) []byte {
	b := make([]byte, tailHeaderSize, tailHeaderSize+len(f.Records)*walRecordSize)
	le := binary.LittleEndian
	copy(b[0:8], TailMagic)
	le.PutUint32(b[8:12], FormatVersion)
	le.PutUint64(b[12:20], f.LastSeq)
	le.PutUint64(b[20:28], f.WriterGen)
	le.PutUint64(b[28:36], f.SnapSeq)
	le.PutUint64(b[36:44], f.SnapGen)
	le.PutUint32(b[44:48], uint32(len(f.Records)))
	le.PutUint32(b[48:52], crc32.Checksum(b[:48], castagnoli))
	for _, r := range f.Records {
		rec := encodeRecord(r)
		b = append(b, rec[:]...)
	}
	return b
}

// tailScan is what scanTail reads of a tail-fetch frame.
type tailScan struct {
	version uint32
	// headerOK reports that the header checksum held; only then are the
	// header fields and the records read.
	headerOK bool
	// frame holds the header fields, and the verified record prefix as
	// Records.
	frame    TailFrame
	declared int // the record count the header declares
	end      int // offset just past the verified prefix
	// recErr is why the prefix stops at a record that is there to read: its
	// checksum, or a break in sequence contiguity.
	recErr error
}

// scanTail decodes a tail-fetch frame's header and its verified record
// prefix: the records, in order and at most the declared count, whose own
// checksums hold and whose sequences run on from the one before. Bytes too
// short for the header, or without the magic, fail with ErrCorrupt.
func scanTail(b []byte) (tailScan, error) {
	if len(b) < tailHeaderSize || string(b[0:8]) != TailMagic {
		return tailScan{}, fmt.Errorf("%w: bad tail-frame header", ErrCorrupt)
	}
	le := binary.LittleEndian
	s := tailScan{version: le.Uint32(b[8:12]), end: tailHeaderSize}
	if crc32.Checksum(b[:48], castagnoli) != le.Uint32(b[48:52]) {
		return s, nil
	}
	s.headerOK = true
	s.frame = TailFrame{
		LastSeq:   le.Uint64(b[12:20]),
		WriterGen: le.Uint64(b[20:28]),
		SnapSeq:   le.Uint64(b[28:36]),
		SnapGen:   le.Uint64(b[36:44]),
	}
	s.declared = int(le.Uint32(b[44:48]))
	s.frame.Records = make([]Record, 0, min(s.declared, (len(b)-tailHeaderSize)/walRecordSize))
	for i := 0; i < s.declared && s.end+walRecordSize <= len(b); i++ {
		rec, ok := decodeRecord(b[s.end : s.end+walRecordSize])
		if !ok {
			s.recErr = fmt.Errorf("%w: tail-frame record %d checksum", ErrCorrupt, i)
			break
		}
		if i > 0 && rec.Seq != s.frame.Records[i-1].Seq+1 {
			s.recErr = fmt.Errorf("%w: tail-frame records not contiguous at %d", ErrCorrupt, i)
			break
		}
		s.frame.Records = append(s.frame.Records, rec)
		s.end += walRecordSize
	}
	return s, nil
}

// DecodeTailFrame parses and verifies a tail-fetch response all or nothing:
// a foreign format version fails with ErrVersion; a missing header, a bad
// header checksum, a length other than the declared records', or a declared
// record outside the verified prefix fails with ErrCorrupt (a replica
// discards the frame and re-fetches).
func DecodeTailFrame(b []byte) (TailFrame, error) {
	s, err := scanTail(b)
	switch {
	case err != nil:
		return TailFrame{}, err
	case s.version != FormatVersion:
		return TailFrame{}, fmt.Errorf("%w: tail frame v%d, reader supports v%d", ErrVersion, s.version, FormatVersion)
	case !s.headerOK:
		return TailFrame{}, fmt.Errorf("%w: tail-frame header checksum", ErrCorrupt)
	case len(b) != tailHeaderSize+s.declared*walRecordSize:
		return TailFrame{}, fmt.Errorf("%w: tail frame declares %d records, carries %d bytes",
			ErrCorrupt, s.declared, len(b)-tailHeaderSize)
	case s.recErr != nil:
		return TailFrame{}, s.recErr
	}
	return s.frame, nil
}
