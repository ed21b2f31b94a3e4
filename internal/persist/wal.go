//recclint:deterministic — WAL records must encode byte-identically for identical mutations.

package persist

import (
	"encoding/binary"
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
	le := binary.LittleEndian
	le.PutUint64(b[0:8], r.Seq)
	if r.Add {
		b[8] = opAdd
	} else {
		b[8] = opRemove
	}
	le.PutUint32(b[9:13], uint32(r.U))
	le.PutUint32(b[13:17], uint32(r.V))
	le.PutUint32(b[17:21], crc32.Checksum(b[:17], castagnoli))
	return b
}

func decodeRecord(b []byte) (Record, bool) {
	le := binary.LittleEndian
	if len(b) < walRecordSize || crc32.Checksum(b[:17], castagnoli) != le.Uint32(b[17:21]) {
		return Record{}, false
	}
	op := b[8]
	if op != opAdd && op != opRemove {
		return Record{}, false
	}
	return Record{
		Seq: le.Uint64(b[0:8]),
		Add: op == opAdd,
		U:   int(int32(le.Uint32(b[9:13]))),
		V:   int(int32(le.Uint32(b[13:17]))),
	}, true
}

// walHeader renders the 12-byte WAL file header.
func walHeader() [walHeaderSize]byte {
	var h [walHeaderSize]byte
	copy(h[:8], WALMagic)
	binary.LittleEndian.PutUint32(h[8:12], FormatVersion)
	return h
}

// scanWAL reads r and returns the header's format version, the valid
// record prefix, and the byte offset where validity ends (for tail repair).
// A missing or foreign header yields version 0, zero records and offset 0;
// a foreign version is ErrVersion. Either way the caller rewrites the file.
func scanWAL(r io.Reader) (version uint32, recs []Record, validSize int64, err error) {
	var hdr [walHeaderSize]byte
	if _, herr := io.ReadFull(r, hdr[:]); herr != nil || string(hdr[:8]) != WALMagic {
		return 0, nil, 0, nil
	}
	if version = binary.LittleEndian.Uint32(hdr[8:12]); version != FormatVersion {
		return version, nil, 0, fmt.Errorf("%w: wal format v%d, reader supports v%d", ErrVersion, version, FormatVersion)
	}
	validSize = walHeaderSize
	var buf [walRecordSize]byte
	var lastSeq uint64
	for {
		if _, rerr := io.ReadFull(r, buf[:]); rerr != nil {
			return version, recs, validSize, nil // clean EOF or torn tail: stop here
		}
		rec, ok := decodeRecord(buf[:])
		if !ok || rec.Seq == 0 || (lastSeq != 0 && rec.Seq != lastSeq+1) {
			return version, recs, validSize, nil
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
func loadWAL(path string) (_ *os.File, _ []Record, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	_, recs, validSize, err := scanWAL(f)
	if err != nil || validSize == 0 {
		// Foreign version or unreadable header: start over.
		recs = nil
		if err = f.Truncate(0); err != nil {
			return nil, nil, err
		}
		hdr := walHeader()
		if _, err = f.WriteAt(hdr[:], 0); err != nil {
			return nil, nil, err
		}
		validSize = walHeaderSize
	}
	if fi, serr := f.Stat(); serr == nil && fi.Size() > validSize {
		if err = f.Truncate(validSize); err != nil {
			return nil, nil, err
		}
	}
	if _, err = f.Seek(0, io.SeekEnd); err != nil {
		return nil, nil, err
	}
	return f, recs, nil
}
