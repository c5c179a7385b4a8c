package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy selects when WAL appends become durable.
type SyncPolicy int

const (
	// SyncUnset means "use the default" (SyncBatch).
	SyncUnset SyncPolicy = 0
	// SyncNever leaves fsync to checkpoints and Close: maximal insert
	// throughput, crash loses everything since the last checkpoint.
	SyncNever SyncPolicy = 1
	// SyncBatch fsyncs once per GroupCommit buffered records: bounded
	// crash-loss window at a fraction of SyncAlways' flush count.
	SyncBatch SyncPolicy = 2
	// SyncAlways fsyncs before every acknowledgement, group-committed:
	// concurrent committers share one fsync, but no acknowledged write is
	// ever lost to a crash.
	SyncAlways SyncPolicy = 3
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a data directory's write-ahead log.
type Options struct {
	// Dir is the data directory.
	Dir string
	// Policy is the fsync policy; SyncUnset means SyncBatch.
	Policy SyncPolicy
	// GroupCommit is the number of buffered records that triggers an
	// fsync under SyncBatch; <= 0 means 64. Ignored by other policies.
	GroupCommit int
}

func (o Options) policy() SyncPolicy {
	if o.Policy == SyncUnset {
		return SyncBatch
	}
	return o.Policy
}

func (o Options) groupCommit() int {
	if o.GroupCommit <= 0 {
		return 64
	}
	return o.GroupCommit
}

// WAL file header: magic, version, first LSN of the file, header CRC. In
// a version-2 file (a log shared by shards) RecFlush and RecCompactCommit
// name their shard; version-1 files (a shard's own) still replay.
const (
	walMagic     = "VDMSWAL1"
	walVersion   = 2
	walHeaderLen = len(walMagic) + 4 + 8 + 4
)

func encodeWALHeader(startLSN uint64) []byte {
	b := make([]byte, 0, walHeaderLen)
	b = append(b, walMagic...)
	b = binary.LittleEndian.AppendUint32(b, walVersion)
	b = binary.LittleEndian.AppendUint64(b, startLSN)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// parseWALHeader returns the file's first LSN and version, or ok=false
// when the header is missing, torn, or checksummed wrong.
func parseWALHeader(data []byte) (startLSN uint64, version uint32, ok bool) {
	if len(data) < walHeaderLen || string(data[:len(walMagic)]) != walMagic {
		return 0, 0, false
	}
	version = binary.LittleEndian.Uint32(data[len(walMagic):])
	crcOff := walHeaderLen - 4
	if version < 1 || version > walVersion || crc32.Checksum(data[:crcOff], castagnoli) != binary.LittleEndian.Uint32(data[crcOff:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(data[len(walMagic)+4:]), version, true
}

func walFileName(startLSN uint64) string { return fmt.Sprintf("wal-%016x.wal", startLSN) }
func snapFileName(lsn uint64) string     { return fmt.Sprintf("snap-%016x.snap", lsn) }
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// listSeqFiles returns the directory's files matching prefix/suffix,
// sorted ascending by their embedded sequence number.
func listSeqFiles(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if v, ok := parseSeqName(e.Name(), prefix, suffix); ok {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// WAL is the append-only operation log of one data directory. Appends go
// to a user-space buffer under an internal mutex (callers serialize them
// with the engine lock, fixing the record order); Commit makes a prefix
// durable according to the policy, with group commit: while one goroutine
// runs fsync, later committers queue up and are satisfied by a single
// follow-up flush.
type WAL struct {
	dir    string
	policy SyncPolicy
	group  int

	mu       sync.Mutex
	f        *os.File
	fileLSN  uint64 // first LSN of the current file
	buf      []byte // records appended but not yet written to the OS
	scratch  []byte // reusable record-body encode buffer
	nextLSN  uint64
	written  int64 // bytes handed to the OS for the current file
	oldBytes int64 // bytes in previous, not-yet-removed WAL files
	closed   bool
	// ioErr permanently fails the log after a file write error: a partial
	// write leaves a torn record on disk, and retrying the buffer whole
	// would duplicate the already-written prefix and garble the log while
	// later commits kept succeeding. Poisoned, the file simply ends in a
	// torn tail, which recovery truncates.
	ioErr error

	// Group-commit state, guarded by mu.
	syncing   bool
	syncedLSN uint64
	syncErr   error
	syncCond  *sync.Cond
}

// OpenWAL opens the directory's log for appending, starting a fresh file
// whose first record will carry nextLSN. Pre-existing WAL files (the ones
// recovery just replayed) are accounted in Size and removed by the next
// checkpoint's RemoveObsolete.
func OpenWAL(opts Options, nextLSN uint64) (*WAL, error) {
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:       opts.Dir,
		policy:    opts.policy(),
		group:     opts.groupCommit(),
		nextLSN:   nextLSN,
		syncedLSN: nextLSN - 1,
	}
	w.syncCond = sync.NewCond(&w.mu)
	existing, err := listSeqFiles(opts.Dir, "wal-", ".wal")
	if err != nil {
		return nil, err
	}
	for _, lsn := range existing {
		if fi, err := os.Stat(filepath.Join(opts.Dir, walFileName(lsn))); err == nil {
			w.oldBytes += fi.Size()
		}
	}
	if err := w.startFileLocked(nextLSN); err != nil {
		return nil, err
	}
	return w, nil
}

// startFileLocked creates wal-<startLSN>.wal and makes it current.
// Callers hold w.mu (or own the WAL exclusively during construction).
func (w *WAL) startFileLocked(startLSN uint64) error {
	// O_TRUNC rather than O_EXCL: recovery may legitimately leave behind a
	// same-named file holding nothing but a header (a rotation or a torn
	// first record right before the crash), which the new log replaces.
	f, err := os.OpenFile(filepath.Join(w.dir, walFileName(startLSN)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	hdr := encodeWALHeader(startLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.fileLSN = startLSN
	w.written = int64(len(hdr))
	return nil
}

// append frames body into the buffer and assigns it the next LSN.
func (w *WAL) append(build func(dst []byte, lsn uint64) []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("persist: WAL closed")
	}
	if w.ioErr != nil {
		return 0, w.ioErr
	}
	lsn := w.nextLSN
	w.nextLSN++
	body := build(w.scratchLocked(), lsn)
	w.buf = appendFrame(w.buf, body)
	w.scratch = body // retain the (possibly grown) scratch for reuse
	// Keep the user-space buffer bounded: hand large buffers to the OS
	// even under lazy policies (this is a write, not an fsync — it does
	// not change the durability window, only memory use).
	if len(w.buf) >= 1<<20 {
		if err := w.writeOutLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// scratchLocked returns a body scratch buffer. Encoders build the body
// here, then appendFrame copies it after the frame header; the scratch
// grows to the largest record and is reused across appends, so steady-
// state appends allocate nothing.
func (w *WAL) scratchLocked() []byte {
	if w.scratch == nil {
		w.scratch = make([]byte, 0, 4096)
	}
	return w.scratch[:0]
}

// writeOutLocked hands the buffered records to the OS. Callers hold w.mu.
// A write error (including a partial write) poisons the log permanently:
// see the ioErr field.
func (w *WAL) writeOutLocked() error {
	if w.ioErr != nil {
		return w.ioErr
	}
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.written += int64(n)
	if err != nil {
		w.ioErr = fmt.Errorf("persist: WAL write failed, log poisoned: %w", err)
		return w.ioErr
	}
	w.buf = w.buf[:0]
	return nil
}

// AppendInsert logs a run of len(vecs) inserted vectors (dimension dim)
// whose ids start at firstID, returning the record's LSN.
func (w *WAL) AppendInsert(firstID int64, vecs [][]float32, dim int) (uint64, error) {
	return w.append(func(dst []byte, lsn uint64) []byte {
		return encodeInsert(dst, lsn, firstID, vecs, dim)
	})
}

// AppendInsertIDs logs inserted vectors with explicit (non-contiguous)
// ids, aligned index-by-index with vecs. Shards of a hash-routed
// collection use it for the sub-batches whose ids stride across shards;
// contiguous runs keep the denser AppendInsert.
func (w *WAL) AppendInsertIDs(ids []int64, vecs [][]float32, dim int) (uint64, error) {
	return w.append(func(dst []byte, lsn uint64) []byte {
		return encodeInsertIDs(dst, lsn, ids, vecs, dim)
	})
}

// AppendDelete logs one Delete call's requested ids.
func (w *WAL) AppendDelete(ids []int64) (uint64, error) {
	return w.append(func(dst []byte, lsn uint64) []byte {
		return encodeDelete(dst, lsn, ids)
	})
}

// AppendFlush logs shard's sealing of its growing segment as sequence seq.
func (w *WAL) AppendFlush(shard int, seq int64) (uint64, error) {
	return w.append(func(dst []byte, lsn uint64) []byte {
		return encodeFlush(dst, lsn, shard, seq)
	})
}

// AppendCompactCommit logs one compaction task shard committed.
func (w *WAL) AppendCompactCommit(shard int, newSeq int64, sources, liveIDs, dropped []int64) (uint64, error) {
	return w.append(func(dst []byte, lsn uint64) []byte {
		return encodeCompactCommit(dst, lsn, shard, newSeq, sources, liveIDs, dropped)
	})
}

// Commit makes the record at lsn (and everything before it) as durable as
// the policy promises: SyncAlways waits for an fsync covering lsn (group-
// committed), SyncBatch fsyncs only when enough records have accumulated,
// SyncNever returns immediately. The policy is read under the lock so a
// concurrent SetPolicy is observed either wholly before or wholly after
// this commit.
func (w *WAL) Commit(lsn uint64) error {
	w.mu.Lock()
	policy := w.policy
	// Count records since the last fsync by LSN, not by buffered
	// records: the 1MB buffer auto-flush hands bytes to the OS
	// without syncing, and must not reset the group-commit clock.
	due := w.nextLSN-1-w.syncedLSN >= uint64(w.group)
	w.mu.Unlock()
	switch policy {
	case SyncAlways:
		return w.syncTo(lsn)
	case SyncBatch:
		if due {
			return w.syncTo(lsn)
		}
		return nil
	default:
		return nil
	}
}

// SetPolicy switches the fsync policy and group-commit batch of an open
// log. The change applies to the next Commit; records already buffered
// keep accumulating toward the new group size. It exists for online
// reconfiguration — durability knobs are hot, the log never rewrites.
func (w *WAL) SetPolicy(p SyncPolicy, groupCommit int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.policy = Options{Policy: p}.policy()
	w.group = Options{GroupCommit: groupCommit}.groupCommit()
}

// Sync forces every appended record to disk regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target := w.nextLSN - 1
	w.mu.Unlock()
	return w.syncTo(target)
}

// syncTo blocks until records up to lsn are fsynced, sharing flushes
// between concurrent callers: one leader writes and fsyncs everything
// buffered so far, and every waiter whose lsn that covers returns with it.
func (w *WAL) syncTo(lsn uint64) error {
	w.mu.Lock()
	for {
		if w.syncErr != nil {
			err := w.syncErr
			w.mu.Unlock()
			return err
		}
		if w.syncedLSN >= lsn {
			w.mu.Unlock()
			return nil
		}
		if !w.syncing {
			break
		}
		w.syncCond.Wait()
	}
	// Become the leader: flush everything appended so far.
	w.syncing = true
	target := w.nextLSN - 1
	err := w.writeOutLocked()
	f := w.f
	w.mu.Unlock()
	if err == nil {
		err = f.Sync()
	}
	w.mu.Lock()
	w.syncing = false
	if err != nil {
		w.syncErr = err
	} else if target > w.syncedLSN {
		w.syncedLSN = target
	}
	w.syncCond.Broadcast()
	w.mu.Unlock()
	return err
}

// Rotate flushes and fsyncs the current file and starts a new one whose
// first record will be the next append, so RemoveObsolete can later
// delete the files the snapshots made redundant.
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("persist: WAL closed")
	}
	// Wait out any in-flight group-commit leader: it holds the current
	// *os.File outside the lock, and rotation is about to close it.
	for w.syncing {
		w.syncCond.Wait()
	}
	if err := w.writeOutLocked(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.oldBytes += w.written
	w.syncedLSN = w.nextLSN - 1
	return w.startFileLocked(w.nextLSN)
}

// RemoveObsolete deletes WAL files whose every record has LSN <= keep.
// A file is removable when the next file starts at or before keep+1.
func (w *WAL) RemoveObsolete(keep uint64) error {
	w.mu.Lock()
	current := w.fileLSN
	w.mu.Unlock()
	lsns, err := listSeqFiles(w.dir, "wal-", ".wal")
	if err != nil {
		return err
	}
	var removed int64
	for i, lsn := range lsns {
		if lsn >= current {
			continue
		}
		next := current
		if i+1 < len(lsns) {
			next = lsns[i+1]
		}
		if next <= keep+1 {
			path := filepath.Join(w.dir, walFileName(lsn))
			fi, statErr := os.Stat(path)
			if err := os.Remove(path); err != nil {
				return err
			}
			if statErr == nil {
				removed += fi.Size()
			}
		}
	}
	w.mu.Lock()
	w.oldBytes -= removed
	if w.oldBytes < 0 {
		w.oldBytes = 0
	}
	w.mu.Unlock()
	return nil
}

// LastLSN returns the LSN of the most recently appended record (nextLSN-1).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Size reports the WAL's current byte footprint: every live file plus the
// user-space buffer. It is what recovery would have to read back.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.oldBytes + w.written + int64(len(w.buf))
}

// Close flushes, fsyncs, and closes the log.
func (w *WAL) Close() error {
	if err := w.Sync(); err != nil {
		w.Crash()
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// Crash abandons the log the way a process crash would: buffered records
// that were never handed to the OS are discarded and the file is closed
// without flushing. It exists for crash-recovery testing.
func (w *WAL) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.buf = nil
	w.f.Close()
}

// ReplayBuffer walks one WAL file image, calling fn for every record with
// LSN > after. It returns the byte length of the valid prefix (the torn-
// tail truncation point) and the LSN the log continues at. A torn or
// checksum-failing tail ends the walk without error; structurally
// impossible records (bad header, non-sequential LSNs, undecodable
// payloads with a valid checksum) return a *CorruptError. fn errors abort
// the walk.
func ReplayBuffer(path string, data []byte, after uint64, fn func(*WALOp) error) (validEnd int64, nextLSN uint64, err error) {
	return walkWAL(path, data, after+1, func(op *WALOp, _, _ int64) error {
		if op.LSN > after && fn != nil {
			return fn(op)
		}
		return nil
	})
}

// walkWAL hands fn every record of a WAL file image in order, with its
// frame's byte range, as ReplayBuffer documents. A missing or torn header
// — an empty file created right before a crash — holds nothing: the log
// continues at empty.
func walkWAL(path string, data []byte, empty uint64, fn func(op *WALOp, off, end int64) error) (validEnd int64, nextLSN uint64, err error) {
	nextLSN, version, ok := parseWALHeader(data)
	if !ok {
		return 0, empty, nil
	}
	r := reader{path: path, data: data, off: walHeaderLen}
	var op WALOp
	for {
		base := int64(r.off)
		body, ok := r.next()
		if !ok {
			return base, nextLSN, nil
		}
		if err := decodeWALOp(path, base, body, version, &op); err != nil {
			return base, nextLSN, err
		}
		if op.LSN != nextLSN {
			return base, nextLSN, corruptf(path, base, "record LSN %d, want %d", op.LSN, nextLSN)
		}
		nextLSN++
		if err := fn(&op, base, int64(r.off)); err != nil {
			return base, nextLSN, err
		}
	}
}

// RecordInfo locates one WAL record within its file, for tooling and the
// crash-matrix harness (truncation points are record boundaries).
type RecordInfo struct {
	LSN  uint64
	Type RecordType
	// Offset and End are the record's frame boundaries within the file:
	// truncating the file at Offset removes this record and everything
	// after it; truncating anywhere in (Offset, End) tears it.
	Offset int64
	End    int64
}

// WALFileNames returns the directory's WAL file paths, ordered oldest
// first.
func WALFileNames(dir string) ([]string, error) {
	lsns, err := listSeqFiles(dir, "wal-", ".wal")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(lsns))
	for i, lsn := range lsns {
		out[i] = filepath.Join(dir, walFileName(lsn))
	}
	return out, nil
}

// ScanWALFile maps one WAL file's valid records without interpreting
// payloads beyond their framing.
func ScanWALFile(path string) ([]RecordInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []RecordInfo
	_, _, err = walkWAL(path, data, 0, func(op *WALOp, off, end int64) error {
		out = append(out, RecordInfo{LSN: op.LSN, Type: op.Type, Offset: off, End: end})
		return nil
	})
	return out, err
}

// ReplayWAL replays every record with LSN > after from the directory's
// WAL files, in order. The newest file may end in a torn record — it is
// truncated in place so the next append continues a clean log. Earlier
// files were sealed by a rotation and must be fully valid; damage there
// is a *CorruptError. It returns the LSN the log ends at (the next LSN to
// write).
func ReplayWAL(dir string, after uint64, fn func(*WALOp) error) (nextLSN uint64, err error) {
	lsns, err := listSeqFiles(dir, "wal-", ".wal")
	if err != nil {
		if os.IsNotExist(err) {
			return after + 1, nil
		}
		return 0, err
	}
	nextLSN = after + 1
	for i, start := range lsns {
		path := filepath.Join(dir, walFileName(start))
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		if start > after && start != nextLSN {
			return 0, corruptf(path, 0, "WAL gap: file starts at LSN %d, log continues at %d", start, nextLSN)
		}
		validEnd, fileNext, err := ReplayBuffer(path, data, after, fn)
		if err != nil {
			return 0, err
		}
		if validEnd < int64(len(data)) {
			if i != len(lsns)-1 {
				return 0, corruptf(path, validEnd, "invalid record inside a sealed WAL file")
			}
			if err := os.Truncate(path, validEnd); err != nil {
				return 0, err
			}
		}
		if fileNext > nextLSN {
			nextLSN = fileNext
		}
	}
	return nextLSN, nil
}
