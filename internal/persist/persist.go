// Package persist is the engine's durability subsystem: a binary snapshot
// codec for sealed-segment state plus an append-only write-ahead log for
// the growing/live layer, the same snapshot+WAL split used by the
// production VDMS backends the paper tunes (Milvus-style segment binlogs
// plus a log for the unflushed tail).
//
// # On-disk layout
//
// Two kinds of files, each kind in its own directory (manifest.go lays
// the directories out):
//
//	snap-<LSN>.snap   full state of one shard as of log sequence number <LSN>
//	wal-<LSN>.wal     log records starting at sequence number <LSN>
//
// Every record — in both file kinds — is individually framed and
// checksummed:
//
//	u32 length | u32 CRC32-C | body
//	body = u64 LSN | u8 type | payload
//
// so torn writes and bit rot are detected record-by-record. Snapshot files
// additionally carry a versioned header and a footer record, making a
// half-written snapshot distinguishable from a complete one; snapshots are
// written to a temp file, fsynced, and renamed into place, so a crash
// during checkpointing never damages the previous snapshot.
//
// # Recovery contract
//
// Recovery loads the newest snapshot that decodes cleanly, then replays
// the WAL suffix (records with LSN beyond the snapshot). A torn tail — a
// partial record at the end of the newest WAL file, the signature of a
// crash mid-append — is truncated, and replay succeeds with the longest
// valid prefix. Any other malformed byte yields a *CorruptError rather
// than a panic: hostile or damaged input can fail recovery, but it cannot
// take the process down or force pathological allocations (every declared
// length is validated against the bytes actually present before any
// allocation).
//
// # Durability policies
//
// The WAL writer buffers records in user space and exposes three fsync
// policies (SyncNever, SyncBatch, SyncAlways) plus group commit: under
// SyncAlways, concurrent committers piggyback on a single fsync, so an
// insert-heavy workload pays one disk flush per batch of acknowledgements
// rather than one per operation. The policies are tuner knobs
// (wal_fsyncPolicy, wal_groupCommit in the configuration space), trading
// acknowledgement latency against the crash-loss window.
package persist

import (
	"fmt"
	"hash/crc32"
)

// CorruptError reports bytes that cannot be a valid snapshot or WAL: a
// checksum mismatch, an impossible declared length, a record that
// contradicts the stream around it. Recovery surfaces it instead of
// panicking; callers distinguish it from I/O errors with errors.As.
type CorruptError struct {
	// Path names the damaged file when known (empty for in-memory decodes).
	Path string
	// Offset is the byte offset of the damage within the input.
	Offset int64
	// Reason describes the inconsistency.
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("persist: corrupt data at offset %d: %s", e.Offset, e.Reason)
	}
	return fmt.Sprintf("persist: corrupt data in %s at offset %d: %s", e.Path, e.Offset, e.Reason)
}

func corruptf(path string, off int64, format string, args ...any) *CorruptError {
	return &CorruptError{Path: path, Offset: off, Reason: fmt.Sprintf(format, args...)}
}

// castagnoli is the CRC32-C table shared by every record frame.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc32c checksums b with the shared table.
func crc32c(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }
