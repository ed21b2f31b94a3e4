//recclint:deterministic — trace records must encode byte-identically for identical operations.

// Package trace is the deterministic workload subsystem: a compact binary
// format for API operation traces (RECCTRC1), a Recorder that captures live
// reccd traffic, a Replayer that re-executes a trace bit-exactly against any
// index (or a live server), and a Generator that synthesizes open-loop
// workloads for capacity testing.
//
// A trace is the serving tier's flight recorder. Every record carries a
// monotonic logical sequence number, the arrival delta to the previous
// operation, the index generation that answered it, and a digest of the
// response — enough to re-execute the workload in order and verify that a
// rebuilt index (same graph, same seeds) produces the same bits.
package trace

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Trace file layout:
//
//	magic "RECCTRC1" | u32 format version
//	per record: u64 seq | u64 deltaNanos | u8 op | u64 gen | u64 digest |
//	            u32 nargs | nargs × u64 arg | u32 CRC32-C
//
// All integers are little-endian; args are int64 node ids in the external
// (edge-list label) id space, stored as their two's-complement u64 bits. The
// CRC covers every record byte before it. Like the mutation WAL, sequence
// numbers are strictly contiguous from 1 and readers stop at the first
// record that is short, fails its checksum, or breaks monotonicity: the
// prefix before that point is trusted, a torn tail never yields a bogus
// operation.
const (
	// Magic identifies a trace file; recc inspect sniffs it.
	Magic = "RECCTRC1"
	// FormatVersion is the trace format generation this package writes.
	FormatVersion = 1

	headerSize = 12
	// recPrefix is the fixed-width record part before the args; the trailing
	// CRC adds crcSize more after them.
	recPrefix = 8 + 8 + 1 + 8 + 8 + 4
	crcSize   = 4
	// maxArgs bounds the per-record argument count so a corrupt length
	// field cannot drive an allocation; it comfortably exceeds any real
	// batch (reccd's default batch cap is 256).
	maxArgs = 1 << 16
)

// Op is the operation kind of one trace record.
type Op uint8

// The traced API operations. OpQuery and OpBatchQuery replay identically
// (both are GET /v1/eccentricity); they are distinct so per-op counts in
// inspection reports separate single-id lookups from batches.
const (
	OpQuery      Op = 1 // single-id eccentricity query; args = [node]
	OpBatchQuery Op = 2 // multi-id eccentricity query; args = nodes in request order
	OpAddEdge    Op = 3 // edge insertion; args = [u, v]
	OpRemoveEdge Op = 4 // edge removal; args = [u, v]
	OpRebuild    Op = 5 // explicit index rebuild; no args
	OpCheckpoint Op = 6 // durable snapshot checkpoint; no args

	opMax = 7
)

// String names the op for reports.
func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpBatchQuery:
		return "batch-query"
	case OpAddEdge:
		return "add-edge"
	case OpRemoveEdge:
		return "remove-edge"
	case OpRebuild:
		return "rebuild"
	case OpCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func validOp(o Op) bool { return o >= OpQuery && o < opMax }

// Record is one traced API operation.
type Record struct {
	// Seq is the logical timestamp: strictly contiguous from 1 in the order
	// operations were recorded (or generated).
	Seq uint64
	// DeltaNanos is the arrival gap to the previous record (0 for the
	// first). Replay in timed mode and the load generator honor it;
	// as-fast-as-possible replay ignores it.
	DeltaNanos uint64
	// Op is the operation kind.
	Op Op
	// Gen is the serving generation observed when the operation was
	// recorded; 0 in generated traces (nothing to verify against).
	Gen uint64
	// Digest summarizes the response bits (see digest.go); 0 in generated
	// traces, which carry load but no expected answers.
	Digest uint64
	// Args are the operation's external node ids: the queried ids for
	// (batch-)queries, [u, v] for edge mutations, empty for rebuild and
	// checkpoint.
	Args []int64
}

// encodedSize is the on-disk size of the record.
func (r Record) encodedSize() int { return recPrefix + 8*len(r.Args) + crcSize }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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

// appendRecord encodes r onto dst and returns the extended slice.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	var scratch [8]byte
	putU64(scratch[:], r.Seq)
	dst = append(dst, scratch[:]...)
	putU64(scratch[:], r.DeltaNanos)
	dst = append(dst, scratch[:]...)
	dst = append(dst, byte(r.Op))
	putU64(scratch[:], r.Gen)
	dst = append(dst, scratch[:]...)
	putU64(scratch[:], r.Digest)
	dst = append(dst, scratch[:]...)
	putU32(scratch[:4], uint32(len(r.Args)))
	dst = append(dst, scratch[:4]...)
	for _, a := range r.Args {
		putU64(scratch[:], uint64(a))
		dst = append(dst, scratch[:]...)
	}
	putU32(scratch[:4], crc32.Checksum(dst[start:], castagnoli))
	return append(dst, scratch[:4]...)
}

// decodeRecord parses one record from the front of b, returning it and the
// bytes consumed; ok is false when b holds no complete valid record.
func decodeRecord(b []byte) (rec Record, n int, ok bool) {
	if len(b) < recPrefix {
		return Record{}, 0, false
	}
	nargs := getU32(b[33:37])
	if nargs > maxArgs {
		return Record{}, 0, false
	}
	n = recPrefix + 8*int(nargs) + crcSize
	if len(b) < n {
		return Record{}, 0, false
	}
	if crc32.Checksum(b[:n-4], castagnoli) != getU32(b[n-4:n]) {
		return Record{}, 0, false
	}
	rec = Record{
		Seq:        getU64(b[0:8]),
		DeltaNanos: getU64(b[8:16]),
		Op:         Op(b[16]),
		Gen:        getU64(b[17:25]),
		Digest:     getU64(b[25:33]),
	}
	if !validOp(rec.Op) {
		return Record{}, 0, false
	}
	if nargs > 0 {
		rec.Args = make([]int64, nargs)
		for i := range rec.Args {
			rec.Args[i] = int64(getU64(b[37+8*i:]))
		}
	}
	return rec, n, true
}

// header renders the 12-byte file header.
func header() [headerSize]byte {
	var h [headerSize]byte
	copy(h[:8], Magic)
	putU32(h[8:12], FormatVersion)
	return h
}

// ErrVersion reports a trace written by a different format generation.
var ErrVersion = fmt.Errorf("trace: unsupported format version")

// ScanTrace reads a trace stream and returns the valid record prefix plus
// the byte offset where validity ends. A missing or foreign magic yields
// zero records and offset 0; a foreign version is ErrVersion (the file is
// a trace, but this reader cannot interpret it). Everything after the valid
// prefix — a torn tail from a crashed recorder, or corruption — is simply
// not returned; callers report it via the offset.
func ScanTrace(r io.Reader) (recs []Record, validSize int64, err error) {
	var hdr [headerSize]byte
	if _, herr := io.ReadFull(r, hdr[:]); herr != nil {
		return nil, 0, nil
	}
	if string(hdr[:8]) != Magic {
		return nil, 0, nil
	}
	if v := getU32(hdr[8:12]); v != FormatVersion {
		return nil, 0, fmt.Errorf("%w: trace format v%d, reader supports v%d", ErrVersion, v, FormatVersion)
	}
	validSize = headerSize
	// Records are variable-length, so scan over a growing buffer: read the
	// fixed prefix, then the args the length field promises.
	buf := make([]byte, 0, 4096)
	var scratch [4096]byte
	var lastSeq uint64
	for {
		// Top the buffer up until it holds a whole candidate record (or the
		// stream ends, which terminates the valid prefix).
		for {
			if len(buf) >= recPrefix {
				nargs := getU32(buf[33:37])
				if nargs > maxArgs {
					return recs, validSize, nil
				}
				if len(buf) >= recPrefix+8*int(nargs)+crcSize {
					break
				}
			}
			n, rerr := r.Read(scratch[:])
			buf = append(buf, scratch[:n]...)
			if rerr != nil {
				if len(buf) < recPrefix {
					return recs, validSize, nil
				}
				if nargs := getU32(buf[33:37]); nargs > maxArgs || len(buf) < recPrefix+8*int(nargs)+crcSize {
					return recs, validSize, nil
				}
				break
			}
		}
		rec, n, ok := decodeRecord(buf)
		if !ok || rec.Seq == 0 || (lastSeq != 0 && rec.Seq != lastSeq+1) || (lastSeq == 0 && rec.Seq != 1) {
			return recs, validSize, nil
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		validSize += int64(n)
		buf = buf[n:]
	}
}

// Info summarizes a trace file for inspection: counts per op, the time span
// the arrival deltas cover, and how much of the file is a torn tail.
type Info struct {
	Version uint32
	Records int
	// ByOp counts records per operation kind, indexed by Op.
	ByOp [opMax]int
	// FirstSeq/LastSeq bound the valid prefix (both 0 when empty).
	FirstSeq, LastSeq uint64
	// SpanNanos is the sum of arrival deltas: the wall-clock span the
	// workload covered when recorded (or targets when generated).
	SpanNanos uint64
	// ValidBytes is the trusted prefix; TornBytes is what a reader discards.
	ValidBytes, TornBytes int64
}

// summarize folds a scanned trace into an Info.
func summarize(recs []Record, validSize, fileSize int64) *Info {
	info := &Info{
		Version:    FormatVersion,
		Records:    len(recs),
		ValidBytes: validSize,
		TornBytes:  fileSize - validSize,
	}
	for _, r := range recs {
		info.ByOp[r.Op]++
		info.SpanNanos += r.DeltaNanos
	}
	if len(recs) > 0 {
		info.FirstSeq = recs[0].Seq
		info.LastSeq = recs[len(recs)-1].Seq
	}
	return info
}

// ReadFile loads the valid record prefix of a trace file. A torn or corrupt
// tail is not an error — the Info reports how many bytes were discarded; a
// file that is not a trace at all yields zero records with ValidBytes 0.
func ReadFile(path string) ([]Record, *Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	recs, validSize, err := ScanTrace(f)
	if err != nil {
		return nil, nil, err
	}
	return recs, summarize(recs, validSize, fi.Size()), nil
}

// InspectFile summarizes a trace file without retaining its records.
func InspectFile(path string) (*Info, error) {
	_, info, err := ReadFile(path)
	return info, err
}

// WriteFile writes recs as a complete trace file at path, fsynced. Records
// must already carry contiguous sequence numbers from 1 (Generate's output
// does); violating that would produce a file whose own reader stops early.
func WriteFile(path string, recs []Record) error {
	buf := make([]byte, 0, headerSize+len(recs)*(recPrefix+16))
	h := header()
	buf = append(buf, h[:]...)
	var lastSeq uint64
	for _, r := range recs {
		if !validOp(r.Op) {
			return fmt.Errorf("trace: record %d has invalid op %d", r.Seq, r.Op)
		}
		if r.Seq != lastSeq+1 {
			return fmt.Errorf("trace: record seq %d breaks contiguity after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		buf = appendRecord(buf, r)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
