//recclint:deterministic — WAL records must encode byte-identically for identical mutations.

package persist

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL file layout:
//
//	magic "RECCWAL1" | u32 format version
//	per record (21 bytes): u64 seq | u8 op | u32 u | u32 v | u32 CRC32-C
//
// The CRC covers the 17 record bytes before it. Records are appended by the
// single lifecycle mutation worker, so sequence numbers are strictly
// contiguous; readers stop at the first record that is short, fails its
// checksum, or breaks monotonicity — everything before that prefix is
// trusted, everything after is discarded (a torn tail never yields a bogus
// mutation).
const (
	// WALMagic is the 8-byte tag that opens every WAL file; `recc inspect`
	// sniffs it to dispatch between the on-disk formats.
	WALMagic = "RECCWAL1"

	walHeaderSize = 12
	walRecordSize = 21

	opAdd    = 1
	opRemove = 2
)

// Record is one committed edge mutation.
type Record struct {
	Seq  uint64
	Add  bool
	U, V int
}

func encodeRecord(r Record) [walRecordSize]byte {
	var b [walRecordSize]byte
	putU64(b[0:8], r.Seq)
	if r.Add {
		b[8] = opAdd
	} else {
		b[8] = opRemove
	}
	putU32(b[9:13], uint32(r.U))
	putU32(b[13:17], uint32(r.V))
	putU32(b[17:21], crc32.Checksum(b[:17], castagnoli))
	return b
}

func putU32(b []byte, x uint32) {
	b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
}

func putU64(b []byte, x uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func getU64(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(b[i]) << (8 * i)
	}
	return x
}

func decodeRecord(b []byte) (Record, bool) {
	if len(b) < walRecordSize {
		return Record{}, false
	}
	if crc32.Checksum(b[:17], castagnoli) != getU32(b[17:21]) {
		return Record{}, false
	}
	op := b[8]
	if op != opAdd && op != opRemove {
		return Record{}, false
	}
	return Record{
		Seq: getU64(b[0:8]),
		Add: op == opAdd,
		U:   int(int32(getU32(b[9:13]))),
		V:   int(int32(getU32(b[13:17]))),
	}, true
}

// walHeader renders the 12-byte WAL file header.
func walHeader() [walHeaderSize]byte {
	var h [walHeaderSize]byte
	copy(h[:8], WALMagic)
	putU32(h[8:12], FormatVersion)
	return h
}

// scanWAL reads r and returns the valid record prefix plus the byte offset
// where validity ends (for tail repair). A missing or foreign header yields
// zero records and offset 0 — the caller rewrites the file.
func scanWAL(r io.Reader) (recs []Record, validSize int64, err error) {
	var hdr [walHeaderSize]byte
	if _, herr := io.ReadFull(r, hdr[:]); herr != nil {
		return nil, 0, nil
	}
	if string(hdr[:8]) != WALMagic {
		return nil, 0, nil
	}
	if v := getU32(hdr[8:12]); v != FormatVersion {
		return nil, 0, fmt.Errorf("%w: wal format v%d, reader supports v%d", ErrVersion, v, FormatVersion)
	}
	validSize = walHeaderSize
	var buf [walRecordSize]byte
	var lastSeq uint64
	for {
		if _, rerr := io.ReadFull(r, buf[:]); rerr != nil {
			return recs, validSize, nil // clean EOF or torn tail: stop here
		}
		rec, ok := decodeRecord(buf[:])
		if !ok || rec.Seq == 0 || (lastSeq != 0 && rec.Seq != lastSeq+1) {
			return recs, validSize, nil
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		validSize += walRecordSize
	}
}

// loadWAL opens (creating if absent) the WAL at path in append mode,
// repairing any invalid tail first, and returns the handle plus the valid
// records. A WAL whose header is unreadable or from another format version
// is reset to an empty log — its records are unusable, and recovery treats
// missing history as "fall back to cold build".
func loadWAL(path string) (*os.File, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	recs, validSize, err := scanWAL(f)
	if err != nil || validSize == 0 {
		// Foreign version or unreadable header: start over.
		recs = nil
		if terr := f.Truncate(0); terr != nil {
			f.Close()
			return nil, nil, terr
		}
		hdr := walHeader()
		if _, werr := f.WriteAt(hdr[:], 0); werr != nil {
			f.Close()
			return nil, nil, werr
		}
		validSize = walHeaderSize
	}
	if fi, serr := f.Stat(); serr == nil && fi.Size() > validSize {
		if terr := f.Truncate(validSize); terr != nil {
			f.Close()
			return nil, nil, terr
		}
	}
	if _, serr := f.Seek(0, io.SeekEnd); serr != nil {
		f.Close()
		return nil, nil, serr
	}
	return f, recs, nil
}
