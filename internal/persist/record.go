package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Record framing shared by WAL and snapshot files:
//
//	u32 length | u32 CRC32-C(body) | body
//	body = u64 LSN | u8 type | payload
//
// Snapshot records reuse the LSN slot for record-local metadata (zero).

// RecordType tags one log or snapshot record.
type RecordType uint8

const (
	// WAL record types: the durable operation log of a live collection.

	// RecInsert carries a contiguous run of inserted vectors and the id of
	// the first one (later ids follow sequentially).
	RecInsert RecordType = 1
	// RecDelete carries the ids passed to one Delete call, verbatim
	// (deletes are idempotent, so replay re-applies them as issued).
	RecDelete RecordType = 2
	// RecFlush marks the sealing of a shard's growing segment — whether
	// from an explicit Flush or from reaching the seal threshold — and
	// carries the shard and the sealed segment's sequence number (which
	// derives its index build seed).
	RecFlush RecordType = 3
	// RecCompactCommit records one committed compaction task: the shard,
	// the source segment sequence numbers, the replacement segment's
	// sequence number, the surviving row ids (in id order), and the
	// tombstoned ids whose rows were physically dropped.
	RecCompactCommit RecordType = 4
	// RecInsertIDs carries inserted vectors whose ids are NOT contiguous —
	// the shape a hash-routed shard sees when a collection-level insert
	// batch is partitioned across shards — so every id is spelled out
	// explicitly. Contiguous runs keep using the denser RecInsert.
	RecInsertIDs RecordType = 5

	// Snapshot-only record types; see snapshot.go.

	snapMeta       RecordType = 101
	snapSegment    RecordType = 102
	snapGrowing    RecordType = 103
	snapTombstones RecordType = 104
	snapFooter     RecordType = 105
)

const (
	// frameHeaderLen is the fixed prefix of every record: length + CRC.
	frameHeaderLen = 8
	// bodyHeaderLen is the fixed prefix of every body: LSN + type.
	bodyHeaderLen = 9
	// maxRecordLen caps a single record body. Any declared length beyond
	// it is corruption by definition, which bounds what a hostile length
	// field can make the reader do.
	maxRecordLen = 1 << 28
)

// WALOp is one decoded WAL record, handed to the replay callback. Exactly
// the fields of its Type are meaningful. The callback's *WALOp is reused
// for the next record, but its slices are decoded fresh and may be kept.
type WALOp struct {
	LSN  uint64
	Type RecordType

	// RecInsert: Count vectors of dimension Dim, row-major in Vectors,
	// with ids FirstID, FirstID+1, …. RecInsertIDs reuses Dim, Count, and
	// Vectors, with the (non-contiguous) ids in IDs instead.
	FirstID int64
	Dim     int
	Count   int
	Vectors []float32

	// RecDelete: the requested ids. RecInsertIDs: the inserted ids,
	// aligned with Vectors.
	IDs []int64

	// RecFlush and RecCompactCommit: the shard (0 in a version-1 file) and
	// the new segment's sequence number.
	Shard int
	Seq   int64

	// RecCompactCommit only.
	Sources []int64
	LiveIDs []int64
	Dropped []int64
}

// appendFrame frames body (already holding LSN+type+payload) onto dst.
func appendFrame(dst, body []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// beginBody appends the body header (LSN + type) onto dst and returns it.
func beginBody(dst []byte, lsn uint64, t RecordType) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	return append(dst, byte(t))
}

// AppendInt64s appends a u32-counted run of int64s — what
// PayloadReader.Int64s reads back.
func AppendInt64s(dst []byte, xs []int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
	}
	return dst
}

// AppendFloat32s appends xs as raw IEEE-754 bit patterns, uncounted.
func AppendFloat32s(dst []byte, xs []float32) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// encodeInsert builds the body of a RecInsert record. Vectors are encoded
// straight from the caller's slices (the raw, pre-normalization input:
// replay re-applies the same normalization the live insert path does).
func encodeInsert(dst []byte, lsn uint64, firstID int64, vecs [][]float32, dim int) []byte {
	dst = beginBody(dst, lsn, RecInsert)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(firstID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vecs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, v := range vecs {
		dst = AppendFloat32s(dst, v)
	}
	return dst
}

// encodeInsertIDs builds the body of a RecInsertIDs record: explicit ids
// followed by the vectors, aligned index-by-index.
func encodeInsertIDs(dst []byte, lsn uint64, ids []int64, vecs [][]float32, dim int) []byte {
	dst = beginBody(dst, lsn, RecInsertIDs)
	dst = AppendInt64s(dst, ids)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, v := range vecs {
		dst = AppendFloat32s(dst, v)
	}
	return dst
}

func encodeDelete(dst []byte, lsn uint64, ids []int64) []byte {
	dst = beginBody(dst, lsn, RecDelete)
	return AppendInt64s(dst, ids)
}

func encodeFlush(dst []byte, lsn uint64, shard int, seq int64) []byte {
	dst = beginBody(dst, lsn, RecFlush)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shard))
	return binary.LittleEndian.AppendUint64(dst, uint64(seq))
}

func encodeCompactCommit(dst []byte, lsn uint64, shard int, newSeq int64, sources, liveIDs, dropped []int64) []byte {
	dst = beginBody(dst, lsn, RecCompactCommit)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shard))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(newSeq))
	dst = AppendInt64s(dst, sources)
	dst = AppendInt64s(dst, liveIDs)
	return AppendInt64s(dst, dropped)
}

// reader walks a byte buffer of framed records, validating each frame.
type reader struct {
	path string
	data []byte
	off  int
}

// next returns the body of the next record, or (nil, false, nil) at a
// clean end of input — including a torn trailing record, which is the
// normal signature of a crash mid-append. The caller distinguishes "tail
// torn" from "input exhausted" via r.off. Checksum or length violations
// within a complete frame are also treated as the end of the valid prefix
// (nil, false, nil): the first bad record ends the log.
func (r *reader) next() (body []byte, ok bool) {
	rest := r.data[r.off:]
	if len(rest) < frameHeaderLen {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(rest[0:4]))
	if n < bodyHeaderLen || n > maxRecordLen || n > len(rest)-frameHeaderLen {
		return nil, false
	}
	body = rest[frameHeaderLen : frameHeaderLen+n]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
		return nil, false
	}
	r.off += frameHeaderLen + n
	return body, true
}

// PayloadReader decodes one framed body — a WAL or snapshot record here,
// a wire message in internal/server — with bounds checking on every read.
// The frame CRC already matched, so a shortfall means writer and reader
// disagree about the schema, or the bytes are hostile: the first failure
// is kept (as the error newErr makes of its offset and description), later
// reads return zero values, and Done reports it. Every count is checked
// against the bytes actually present before anything is sized by it.
type PayloadReader struct {
	buf    []byte
	off    int
	err    error
	newErr func(off int, reason string) error
}

// NewPayloadReader reads buf from its start; newErr builds the error for a
// failure at a byte offset of buf.
func NewPayloadReader(buf []byte, newErr func(off int, reason string) error) *PayloadReader {
	return &PayloadReader{buf: buf, newErr: newErr}
}

// recordReader reads the payload of one WAL or snapshot record: failures
// are *CorruptErrors locating the damage in the file at path, where the
// payload begins at offset base.
func recordReader(path string, base int64, payload []byte) *PayloadReader {
	return NewPayloadReader(payload, func(off int, reason string) error {
		return corruptf(path, base+int64(off), "%s", reason)
	})
}

// Failf records a failure at the current offset; the first one wins.
func (p *PayloadReader) Failf(format string, args ...any) {
	if p.err == nil {
		p.err = p.newErr(p.off, fmt.Sprintf(format, args...))
	}
}

func (p *PayloadReader) Err() error     { return p.err }
func (p *PayloadReader) Remaining() int { return len(p.buf) - p.off }

// take returns the next n elements of size bytes each, aliasing the
// buffer, or nil on a shortfall (n is checked by division: no product of
// hostile counts can overflow into a match).
func (p *PayloadReader) take(n, size int) []byte {
	if p.err == nil && (n < 0 || n > p.Remaining()/size) {
		p.Failf("need %d x %d payload bytes, have %d", n, size, p.Remaining())
	}
	if p.err != nil {
		return nil
	}
	b := p.buf[p.off : p.off+n*size]
	p.off += n * size
	return b
}

func (p *PayloadReader) Take(n int) []byte { return p.take(n, 1) }

func (p *PayloadReader) U32() uint32 {
	if b := p.take(1, 4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (p *PayloadReader) U64() uint64 {
	if b := p.take(1, 8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (p *PayloadReader) I64() int64 { return int64(p.U64()) }

// Count reads a u32 element count and fails unless that many elements of
// elemBytes each are actually present.
func (p *PayloadReader) Count(elemBytes int) int {
	n := int(p.U32())
	if p.err == nil && n > p.Remaining()/elemBytes {
		p.Failf("declared %d elements (%dB each), only %d bytes remain", n, elemBytes, p.Remaining())
		return 0
	}
	return n
}

// Int64s reads a u32-counted run of int64s (what AppendInt64s wrote) into
// a fresh slice, nil when empty.
func (p *PayloadReader) Int64s() []int64 {
	n := int(p.U32())
	b := p.take(n, 8)
	if b == nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// Float32s reads n raw float32s into a fresh slice, nil when empty.
func (p *PayloadReader) Float32s(n int) []float32 {
	b := p.take(n, 4)
	if b == nil || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// Rect reads count rows of dim raw float32s each as one flat slice. The
// shape is checked by division, so no pair of hostile counts can overflow
// a product into a match.
func (p *PayloadReader) Rect(count, dim int) []float32 {
	if p.err == nil && (count < 0 || dim <= 0 || count > p.Remaining()/4/dim) {
		p.Failf("batch declares %d x %d floats, payload has %d bytes", count, dim, p.Remaining())
		return nil
	}
	return p.Float32s(count * dim)
}

// Done fails on leftover bytes and returns the first failure, if any.
func (p *PayloadReader) Done() error {
	if p.err == nil && p.off != len(p.buf) {
		p.Failf("%d trailing payload bytes", p.Remaining())
	}
	return p.err
}

// decodeWALOp decodes one WAL record body of a file of the given header
// version into op.
func decodeWALOp(path string, base int64, body []byte, version uint32, op *WALOp) error {
	*op = WALOp{
		LSN:  binary.LittleEndian.Uint64(body[0:8]),
		Type: RecordType(body[8]),
	}
	p := recordReader(path, base+bodyHeaderLen, body[bodyHeaderLen:])
	switch op.Type {
	case RecInsert:
		op.FirstID = p.I64()
		op.Count = int(p.U32())
		op.Dim = int(p.U32())
		op.Vectors = p.Rect(op.Count, op.Dim)
	case RecInsertIDs:
		op.IDs = p.Int64s()
		op.Count = len(op.IDs)
		op.Dim = int(p.U32())
		op.Vectors = p.Rect(op.Count, op.Dim)
	case RecDelete:
		op.IDs = p.Int64s()
	case RecFlush, RecCompactCommit:
		if version >= 2 {
			op.Shard = int(p.U32())
		}
		op.Seq = p.I64()
		if op.Type == RecFlush {
			break
		}
		op.Sources = p.Int64s()
		op.LiveIDs = p.Int64s()
		op.Dropped = p.Int64s()
	default:
		p.Failf("unknown WAL record type %d", op.Type)
	}
	return p.Done()
}
