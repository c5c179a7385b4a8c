package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// Snapshot is the full durable state of a live collection as of
// CheckpointLSN: every segment's raw rows and ids (indexes are not
// serialized — they rebuild deterministically from rows, sequence-derived
// seeds, and the build parameters), the growing tail, the tombstone set,
// and the counters a recovered engine must continue from.
type Snapshot struct {
	// CheckpointLSN is the last WAL record the snapshot covers; recovery
	// replays strictly newer records on top.
	CheckpointLSN uint64

	Dim       int
	Metric    linalg.Metric
	IndexType index.Type
	// Build captures the index build parameters the segments' indexes are
	// rebuilt with; recovery cross-checks them against the opening
	// configuration, since a mismatch would silently change results.
	Build index.BuildParams

	NextID  int64
	SealSeq int64
	Rows    int64

	CompactionPasses  int64
	CompactedSegments int64
	ReclaimedRows     int64

	// Segments holds sealed and still-sealing segments alike (a sealing
	// segment's index rebuild lands at recovery instead), ascending by Seq.
	Segments []SnapSegment
	// Growing is the unsealed tail (nil when empty); GrowingIDs labels its
	// rows.
	Growing    *linalg.Matrix
	GrowingIDs []int64
	// Tombstones lists deleted ids still physically present in segments,
	// sorted ascending.
	Tombstones []int64
}

// SnapSegment is one segment's durable form: its sequence number (which
// derives the deterministic index build seed), ascending row ids, and the
// raw rows. Row i is Store.Row(Order[i]) when Order is set — a segment that
// reads its rows back from its index's arena is written in id order
// without copying them — and Store.Row(i) otherwise; decoded segments
// never carry an Order.
type SnapSegment struct {
	Seq   int64
	IDs   []int64
	Store *linalg.Matrix
	Order []int32
}

// Snapshot file header: magic, version, CRC over both.
const (
	snapMagic     = "VDMSNAP1"
	snapVersion   = 1
	snapHeaderLen = len(snapMagic) + 4 + 4
)

// EncodeSnapshot serializes s into one byte slice (used by tests and the
// fuzz targets); the checkpoint path streams with encodeSnapshotTo
// instead, so a checkpoint never materializes the full state twice.
func EncodeSnapshot(s *Snapshot) []byte {
	var b bytes.Buffer
	b.Grow(snapHeaderLen + 256 + int(s.totalBytes()))
	if err := encodeSnapshotTo(&b, s); err != nil {
		// bytes.Buffer writes cannot fail.
		panic(err)
	}
	return b.Bytes()
}

// encodeSnapshotTo streams s into w: a versioned header, then one framed
// CRC32-C record per logical piece (meta, each segment, the growing tail,
// the tombstone set), then a footer record carrying the record count —
// without which the snapshot is incomplete. Records are encoded one at a
// time into reused buffers, so peak memory is one segment's bytes, not
// the full state's.
func encodeSnapshotTo(w io.Writer, s *Snapshot) error {
	hdr := make([]byte, 0, snapHeaderLen)
	hdr = append(hdr, snapMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, snapVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32c(hdr))
	if _, err := w.Write(hdr); err != nil {
		return err
	}

	var frame, body []byte
	records := 0
	emit := func() error {
		records++
		frame = appendFrame(frame[:0], body)
		_, err := w.Write(frame)
		return err
	}

	body = beginBody(body[:0], 0, snapMeta)
	body = binary.LittleEndian.AppendUint64(body, s.CheckpointLSN)
	body = binary.LittleEndian.AppendUint32(body, uint32(s.Dim))
	body = append(body, byte(s.Metric), byte(s.IndexType))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.NList))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.M))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.NBits))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.HNSWM))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.EfConstruction))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Build.Seed))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.NextID))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.SealSeq))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.Rows))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.CompactionPasses))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.CompactedSegments))
	body = binary.LittleEndian.AppendUint64(body, uint64(s.ReclaimedRows))
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Segments)))
	if err := emit(); err != nil {
		return err
	}

	for i := range s.Segments {
		seg := &s.Segments[i]
		body = beginBody(body[:0], 0, snapSegment)
		body = binary.LittleEndian.AppendUint64(body, uint64(seg.Seq))
		body = AppendInt64s(body, seg.IDs)
		body = appendStore(body, seg.Store, seg.Order)
		if err := emit(); err != nil {
			return err
		}
	}

	if s.Growing != nil && s.Growing.Rows() > 0 {
		body = beginBody(body[:0], 0, snapGrowing)
		body = AppendInt64s(body, s.GrowingIDs)
		body = appendStore(body, s.Growing, nil)
		if err := emit(); err != nil {
			return err
		}
	}

	body = beginBody(body[:0], 0, snapTombstones)
	body = AppendInt64s(body, s.Tombstones)
	if err := emit(); err != nil {
		return err
	}

	body = beginBody(body[:0], 0, snapFooter)
	body = binary.LittleEndian.AppendUint32(body, uint32(records+1))
	return emit()
}

// appendStore encodes a matrix's rows row-by-row (views need not be
// packed): row i is m.Row(order[i]) when order is non-nil.
func appendStore(dst []byte, m *linalg.Matrix, order []int32) []byte {
	rows := 0
	if m != nil {
		rows = m.Rows()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rows))
	for i := 0; i < rows; i++ {
		r := i
		if order != nil {
			r = int(order[i])
		}
		dst = AppendFloat32s(dst, m.Row(r))
	}
	return dst
}

func (s *Snapshot) totalBytes() int64 {
	var n int64
	for i := range s.Segments {
		n += s.Segments[i].Store.Bytes() + int64(len(s.Segments[i].IDs))*8 + 64
	}
	if s.Growing != nil {
		n += s.Growing.Bytes() + int64(len(s.GrowingIDs))*8
	}
	n += int64(len(s.Tombstones)) * 8
	return n
}

// decodeSnapshot parses bytes written by EncodeSnapshot, read from path
// (empty for in-memory input). Hostile or damaged input yields a
// *CorruptError, never a panic, and never an allocation larger than the
// input justifies.
func decodeSnapshot(path string, data []byte) (*Snapshot, error) {
	if len(data) < snapHeaderLen || string(data[:len(snapMagic)]) != snapMagic {
		return nil, corruptf(path, 0, "not a snapshot file")
	}
	if v := binary.LittleEndian.Uint32(data[len(snapMagic):]); v != snapVersion {
		return nil, corruptf(path, int64(len(snapMagic)), "unsupported snapshot version %d", v)
	}
	crcOff := snapHeaderLen - 4
	if crc32c(data[:crcOff]) != binary.LittleEndian.Uint32(data[crcOff:snapHeaderLen]) {
		return nil, corruptf(path, int64(crcOff), "snapshot header checksum mismatch")
	}

	r := reader{path: path, data: data, off: snapHeaderLen}
	s := &Snapshot{}
	var (
		records     uint32
		wantSegs    uint32
		seenMeta    bool
		seenGrowing bool
		seenTombs   bool
		footerCount uint32
		seenFooter  bool
	)
	for {
		base := int64(r.off)
		body, ok := r.next()
		if !ok {
			if r.off != len(data) {
				return nil, corruptf(path, base, "invalid snapshot record")
			}
			break
		}
		records++
		if seenFooter {
			return nil, corruptf(path, base, "records after snapshot footer")
		}
		typ := RecordType(body[8])
		p := recordReader(path, base+bodyHeaderLen, body[bodyHeaderLen:])
		switch typ {
		case snapMeta:
			if seenMeta {
				return nil, corruptf(path, base, "duplicate snapshot meta record")
			}
			seenMeta = true
			s.CheckpointLSN = p.U64()
			s.Dim = int(p.U32())
			mb := p.Take(2)
			if mb != nil {
				s.Metric = linalg.Metric(mb[0])
				s.IndexType = index.Type(mb[1])
			}
			s.Build.NList = int(p.I64())
			s.Build.M = int(p.I64())
			s.Build.NBits = int(p.I64())
			s.Build.HNSWM = int(p.I64())
			s.Build.EfConstruction = int(p.I64())
			s.Build.Seed = p.I64()
			s.NextID = p.I64()
			s.SealSeq = p.I64()
			s.Rows = p.I64()
			s.CompactionPasses = p.I64()
			s.CompactedSegments = p.I64()
			s.ReclaimedRows = p.I64()
			wantSegs = p.U32()
			if err := p.Done(); err != nil {
				return nil, err
			}
			if s.Dim <= 0 {
				return nil, corruptf(path, base, "snapshot dimension %d", s.Dim)
			}
		case snapSegment:
			if !seenMeta {
				return nil, corruptf(path, base, "segment record before meta")
			}
			seg := SnapSegment{Seq: p.I64()}
			seg.IDs = p.Int64s()
			var err error
			seg.Store, err = decodeStore(p, s.Dim)
			if err != nil {
				return nil, err
			}
			if err := p.Done(); err != nil {
				return nil, err
			}
			if len(seg.IDs) != seg.Store.Rows() {
				return nil, corruptf(path, base, "segment with %d ids but %d rows", len(seg.IDs), seg.Store.Rows())
			}
			s.Segments = append(s.Segments, seg)
		case snapGrowing:
			if !seenMeta || seenGrowing {
				return nil, corruptf(path, base, "unexpected growing record")
			}
			seenGrowing = true
			s.GrowingIDs = p.Int64s()
			var err error
			s.Growing, err = decodeStore(p, s.Dim)
			if err != nil {
				return nil, err
			}
			if err := p.Done(); err != nil {
				return nil, err
			}
			if len(s.GrowingIDs) != s.Growing.Rows() {
				return nil, corruptf(path, base, "growing tail with %d ids but %d rows", len(s.GrowingIDs), s.Growing.Rows())
			}
		case snapTombstones:
			if !seenMeta || seenTombs {
				return nil, corruptf(path, base, "unexpected tombstone record")
			}
			seenTombs = true
			s.Tombstones = p.Int64s()
			if err := p.Done(); err != nil {
				return nil, err
			}
		case snapFooter:
			seenFooter = true
			footerCount = p.U32()
			if err := p.Done(); err != nil {
				return nil, err
			}
		default:
			return nil, corruptf(path, base, "unknown snapshot record type %d", typ)
		}
	}
	if !seenFooter {
		return nil, corruptf(path, int64(len(data)), "snapshot footer missing (incomplete write)")
	}
	if footerCount != records {
		return nil, corruptf(path, int64(len(data)), "snapshot has %d records, footer declares %d", records, footerCount)
	}
	if !seenMeta || !seenTombs {
		return nil, corruptf(path, int64(len(data)), "snapshot missing required records")
	}
	if uint32(len(s.Segments)) != wantSegs {
		return nil, corruptf(path, int64(len(data)), "snapshot has %d segments, meta declares %d", len(s.Segments), wantSegs)
	}
	return s, nil
}

// decodeStore reads a u32-counted run of rows into a fresh packed matrix.
func decodeStore(p *PayloadReader, dim int) (*linalg.Matrix, error) {
	rows := int(p.U32())
	if p.Err() == nil && (rows < 0 || rows > (p.Remaining())/4/dim) {
		p.Failf("store declares %d×%d floats, payload has %d bytes", rows, dim, p.Remaining())
	}
	if p.Err() != nil {
		return nil, p.Err()
	}
	m := linalg.NewMatrix(dim, rows)
	for r := 0; r < rows; r++ {
		vals := p.Float32s(dim)
		if p.Err() != nil {
			return nil, p.Err()
		}
		m.AppendRow(vals)
	}
	return m, nil
}

// WriteSnapshot atomically persists s into dir as snap-<CheckpointLSN>,
// streamed record by record, so peak memory stays at one segment (see
// writeFileAtomic). A crash at any point leaves either no new snapshot or
// a complete one.
func WriteSnapshot(dir string, s *Snapshot) error {
	return writeFileAtomic(dir, snapFileName(s.CheckpointLSN), "snap-*.tmp", func(w io.Writer) error {
		return encodeSnapshotTo(w, s)
	})
}

// writeFileAtomic persists what write streams into dir/name: temp file
// (named by tmpPattern), fsync, rename, directory fsync — so a crash at
// any point leaves the previous file, or none, or the complete new one.
func writeFileAtomic(dir, name, tmpPattern string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadNewestSnapshot returns the newest snapshot in dir that decodes
// cleanly, skipping damaged ones (an older valid snapshot plus a longer
// WAL replay beats refusing to start). It returns (nil, nil) when the
// directory holds no usable snapshot at all and (nil, err) only when a
// snapshot exists but none is readable.
func LoadNewestSnapshot(dir string) (*Snapshot, error) {
	lsns, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var firstErr error
	for i := len(lsns) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snapFileName(lsns[i]))
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s, err := decodeSnapshot(path, data)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return s, nil
	}
	if firstErr != nil {
		return nil, fmt.Errorf("persist: no readable snapshot in %s: %w", dir, firstErr)
	}
	return nil, nil
}

// RemoveObsoleteSnapshots deletes snapshots older than keep (their LSN <
// keep). The checkpoint path keeps the previous generation around so a
// damaged newest snapshot still has a fallback.
func RemoveObsoleteSnapshots(dir string, keep uint64) error {
	lsns, err := listSeqFiles(dir, "snap-", ".snap")
	if err != nil {
		return err
	}
	for _, lsn := range lsns {
		if lsn < keep {
			if err := os.Remove(filepath.Join(dir, snapFileName(lsn))); err != nil {
				return err
			}
		}
	}
	return nil
}
