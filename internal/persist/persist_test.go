package persist

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// collectOps replays every record in dir after the given LSN into a slice
// of deep-copied ops.
func collectOps(t *testing.T, dir string, after uint64) []WALOp {
	t.Helper()
	var ops []WALOp
	next, err := ReplayWAL(dir, after, func(op *WALOp) error {
		cp := *op
		cp.Vectors = append([]float32(nil), op.Vectors...)
		cp.IDs = append([]int64(nil), op.IDs...)
		cp.Sources = append([]int64(nil), op.Sources...)
		cp.LiveIDs = append([]int64(nil), op.LiveIDs...)
		cp.Dropped = append([]int64(nil), op.Dropped...)
		ops = append(ops, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayWAL: %v", err)
	}
	if len(ops) > 0 && ops[len(ops)-1].LSN != next-1 {
		t.Fatalf("nextLSN %d does not follow last replayed LSN %d", next, ops[len(ops)-1].LSN)
	}
	return ops
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncAlways}, 1)
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	if _, err := w.AppendInsert(7, vecs, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendDelete([]int64{8, 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendFlush(2, 3); err != nil {
		t.Fatal(err)
	}
	lsn, err := w.AppendCompactCommit(1, 4, []int64{0, 1}, []int64{7, 8}, []int64{9})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("LSN = %d, want 4", lsn)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ops := collectOps(t, dir, 0)
	if len(ops) != 4 {
		t.Fatalf("replayed %d ops, want 4", len(ops))
	}
	ins := ops[0]
	if ins.Type != RecInsert || ins.FirstID != 7 || ins.Count != 3 || ins.Dim != 2 {
		t.Fatalf("bad insert op: %+v", ins)
	}
	want := []float32{1, 2, 3, 4, 5, 6}
	for i, v := range want {
		if ins.Vectors[i] != v {
			t.Fatalf("insert vectors[%d] = %v, want %v", i, ins.Vectors[i], v)
		}
	}
	if del := ops[1]; del.Type != RecDelete || len(del.IDs) != 2 || del.IDs[0] != 8 || del.IDs[1] != 9 {
		t.Fatalf("bad delete op: %+v", ops[1])
	}
	if fl := ops[2]; fl.Type != RecFlush || fl.Shard != 2 || fl.Seq != 3 {
		t.Fatalf("bad flush op: %+v", ops[2])
	}
	cc := ops[3]
	if cc.Type != RecCompactCommit || cc.Shard != 1 || cc.Seq != 4 ||
		len(cc.Sources) != 2 || len(cc.LiveIDs) != 2 || len(cc.Dropped) != 1 {
		t.Fatalf("bad compact-commit op: %+v", cc)
	}

	// Replay with after=2 must skip the first two records.
	tail := collectOps(t, dir, 2)
	if len(tail) != 2 || tail[0].Type != RecFlush {
		t.Fatalf("suffix replay got %d ops (first %v), want flush+compact", len(tail), tail[0].Type)
	}
}

// TestWALVersion1Replays: a version-1 file — one shard's own log, whose
// seal and compaction records name no shard — still replays, with every
// record's Shard 0. testdata/wal-v1.wal is the fuzz seed log as the
// version-1 writer wrote it.
func TestWALVersion1Replays(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "wal-v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var got []WALOp
	validEnd, next, err := ReplayBuffer("wal-v1.wal", data, 0, func(op *WALOp) error {
		got = append(got, *op)
		return nil
	})
	if err != nil || validEnd != int64(len(data)) || next != 6 || len(got) != 5 {
		t.Fatalf("replayed %d records to LSN %d, valid to %d of %d bytes: %v", len(got), next, validEnd, len(data), err)
	}
	if fl := got[3]; fl.Type != RecFlush || fl.Shard != 0 || fl.Seq != 0 {
		t.Fatalf("bad version-1 flush op: %+v", fl)
	}
	if cc := got[4]; cc.Type != RecCompactCommit || cc.Shard != 0 || cc.Seq != 1 || len(cc.Sources) != 1 || cc.LiveIDs[0] != 1 || cc.Dropped[0] != 0 {
		t.Fatalf("bad version-1 compact-commit op: %+v", cc)
	}
}

// TestWALInsertIDsRoundTrip covers the explicit-id insert record the
// hash-routed shards write: non-contiguous ids survive encode/replay
// aligned with their vectors.
func TestWALInsertIDsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncAlways}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{3, 11, 12, 40}
	vecs := [][]float32{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	lsn, err := w.AppendInsertIDs(ids, vecs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := collectOps(t, dir, 0)
	if len(ops) != 1 {
		t.Fatalf("replayed %d ops, want 1", len(ops))
	}
	op := ops[0]
	if op.Type != RecInsertIDs || op.Count != 4 || op.Dim != 2 {
		t.Fatalf("bad insert-ids op: %+v", op)
	}
	for i, id := range ids {
		if op.IDs[i] != id {
			t.Fatalf("ids[%d] = %d, want %d", i, op.IDs[i], id)
		}
		for d := 0; d < 2; d++ {
			if op.Vectors[i*2+d] != vecs[i][d] {
				t.Fatalf("vectors[%d][%d] = %v, want %v", i, d, op.Vectors[i*2+d], vecs[i][d])
			}
		}
	}
}

// TestManifestRoundTrip covers the collection manifest: atomic write,
// load, absence, and rejection of damaged or impossible contents.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadManifest(dir); err != nil || m != nil {
		t.Fatalf("empty dir: manifest %+v, err %v, want nil/nil", m, err)
	}
	want := &Manifest{Shards: 4, Dim: 16, Metric: linalg.Angular}
	if err := WriteManifest(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != ManifestVersion || got.Shards != 4 || got.Dim != 16 || got.Metric != linalg.Angular {
		t.Fatalf("manifest round trip: %+v", got)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("not json"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); !isCorrupt(err) {
		t.Fatalf("damaged manifest: err = %v, want CorruptError", err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"version":1,"shards":0,"dim":4}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); !isCorrupt(err) {
		t.Fatalf("zero-shard manifest: err = %v, want CorruptError", err)
	}
}

// TestHasLegacyLayout distinguishes pre-sharding directories (top-level
// snapshot/WAL files) from fresh and sharded ones.
func TestHasLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if legacy, err := HasLegacyLayout(dir); err != nil || legacy {
		t.Fatalf("fresh dir: legacy=%v err=%v", legacy, err)
	}
	if legacy, err := HasLegacyLayout(filepath.Join(dir, "missing")); err != nil || legacy {
		t.Fatalf("missing dir: legacy=%v err=%v", legacy, err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName(1)), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	if legacy, err := HasLegacyLayout(dir); err != nil || !legacy {
		t.Fatalf("dir with top-level WAL: legacy=%v err=%v", legacy, err)
	}
}

// TestWALTornTail truncates the log at every byte offset and verifies
// replay always yields a clean record-aligned prefix, never an error.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncAlways}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.AppendInsert(int64(i*2), [][]float32{{float32(i), 1}, {float32(i), 2}}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walFileName(1))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		var n int
		_, _, err := ReplayBuffer(path, full[:cut], 0, func(op *WALOp) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The replayed prefix must be the number of complete records
		// before the cut.
		whole := 0
		if cut >= walHeaderLen {
			sub := reader{data: full[:cut], off: walHeaderLen}
			for {
				if _, ok := sub.next(); !ok {
					break
				}
				whole++
			}
		}
		if n != whole {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, whole)
		}
	}
}

func TestWALRotateAndRemoveObsolete(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendDelete([]int64{1})
	w.AppendDelete([]int64{2})
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.AppendDelete([]int64{3})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Both files present: replay sees all three records.
	if ops := collectOps(t, dir, 0); len(ops) != 3 {
		t.Fatalf("replayed %d ops, want 3", len(ops))
	}
	// Drop files wholly covered by LSN 2 (the first file).
	if err := w.RemoveObsolete(2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("first WAL file not removed: %v", err)
	}
	if ops := collectOps(t, dir, 2); len(ops) != 1 || ops[0].IDs[0] != 3 {
		t.Fatalf("post-truncation replay wrong: %+v", ops)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALCrashDropsBufferedRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncNever}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendDelete([]int64{1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.AppendDelete([]int64{2}) // never synced
	w.Crash()
	if ops := collectOps(t, dir, 0); len(ops) != 1 {
		t.Fatalf("crash kept %d records, want the 1 synced one", len(ops))
	}
}

func testSnapshot() *Snapshot {
	store := linalg.NewMatrix(3, 2)
	store.AppendRow([]float32{1, 2, 3})
	store.AppendRow([]float32{4, 5, 6})
	growing := linalg.NewMatrix(3, 1)
	growing.AppendRow([]float32{7, 8, 9})
	return &Snapshot{
		CheckpointLSN:     42,
		Dim:               3,
		Metric:            linalg.InnerProduct,
		IndexType:         index.HNSW,
		Build:             index.BuildParams{HNSWM: 8, EfConstruction: 32, Seed: 7},
		NextID:            11,
		SealSeq:           5,
		Rows:              3,
		CompactionPasses:  2,
		CompactedSegments: 3,
		ReclaimedRows:     4,
		Segments:          []SnapSegment{{Seq: 4, IDs: []int64{1, 9}, Store: store}},
		Growing:           growing,
		GrowingIDs:        []int64{10},
		Tombstones:        []int64{2, 5},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot()
	got, err := decodeSnapshot("", EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointLSN != 42 || got.Dim != 3 || got.Metric != linalg.InnerProduct ||
		got.IndexType != index.HNSW || got.Build != s.Build ||
		got.NextID != 11 || got.SealSeq != 5 || got.Rows != 3 ||
		got.CompactionPasses != 2 || got.CompactedSegments != 3 || got.ReclaimedRows != 4 {
		t.Fatalf("meta mismatch: %+v", got)
	}
	if len(got.Segments) != 1 || got.Segments[0].Seq != 4 ||
		len(got.Segments[0].IDs) != 2 || got.Segments[0].Store.Rows() != 2 {
		t.Fatalf("segments mismatch: %+v", got.Segments)
	}
	if got.Segments[0].Store.Row(1)[2] != 6 {
		t.Fatalf("segment rows mismatch")
	}
	if got.Growing == nil || got.Growing.Rows() != 1 || got.Growing.Row(0)[0] != 7 ||
		len(got.GrowingIDs) != 1 || got.GrowingIDs[0] != 10 {
		t.Fatalf("growing mismatch")
	}
	if len(got.Tombstones) != 2 || got.Tombstones[1] != 5 {
		t.Fatalf("tombstones mismatch: %v", got.Tombstones)
	}
	// A segment whose rows sit permuted in another arena is written through
	// its Order: the same bytes as its rows in order.
	permuted := testSnapshot()
	rev := linalg.NewMatrix(3, 2)
	rev.AppendRow([]float32{4, 5, 6})
	rev.AppendRow([]float32{1, 2, 3})
	permuted.Segments[0].Store, permuted.Segments[0].Order = rev, []int32{1, 0}
	if !bytes.Equal(EncodeSnapshot(permuted), EncodeSnapshot(s)) {
		t.Fatal("a segment written through its Order encodes differently from its rows in order")
	}
}

// TestSnapshotDecodeRejectsDamage flips bytes and truncates; decode must
// return CorruptError every time, never succeed on damaged framing.
func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	data := EncodeSnapshot(testSnapshot())
	// Truncations: every prefix must fail (the footer is last).
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeSnapshot("", data[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		} else if !isCorrupt(err) {
			t.Fatalf("truncation at %d: non-corrupt error %v", cut, err)
		}
	}
	// Bit flips at a sample of offsets.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		if bytes.Equal(mut, data) {
			continue
		}
		s, err := decodeSnapshot("", mut)
		if err == nil {
			// A flip inside float payload bytes is caught by the record
			// CRC, so success is impossible.
			t.Fatalf("trial %d: corrupted snapshot decoded, %+v", trial, s)
		}
		if !isCorrupt(err) {
			t.Fatalf("trial %d: non-corrupt error %v", trial, err)
		}
	}
}

func TestWriteAndLoadNewestSnapshot(t *testing.T) {
	dir := t.TempDir()
	if s, err := LoadNewestSnapshot(dir); err != nil || s != nil {
		t.Fatalf("empty dir: %v, %v", s, err)
	}
	s1 := testSnapshot()
	s1.CheckpointLSN = 10
	if err := WriteSnapshot(dir, s1); err != nil {
		t.Fatal(err)
	}
	s2 := testSnapshot()
	s2.CheckpointLSN = 20
	s2.NextID = 99
	if err := WriteSnapshot(dir, s2); err != nil {
		t.Fatal(err)
	}
	got, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointLSN != 20 || got.NextID != 99 {
		t.Fatalf("loaded snapshot %d/%d, want the newest (20/99)", got.CheckpointLSN, got.NextID)
	}

	// Damage the newest: loading falls back to the older valid one.
	path := filepath.Join(dir, snapFileName(20))
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	got, err = LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.CheckpointLSN != 10 {
		t.Fatalf("fallback loaded %d, want 10", got.CheckpointLSN)
	}

	// Retention trimming keeps snapshots at or beyond the floor.
	if err := RemoveObsoleteSnapshots(dir, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName(10))); !os.IsNotExist(err) {
		t.Fatalf("old snapshot not removed: %v", err)
	}
}

// TestBatchPolicySyncsDespiteAutoFlush: the 1MB buffer auto-flush hands
// bytes to the OS without fsyncing; it must not reset the group-commit
// clock, or the batch policy would silently degrade to never syncing
// when records are large.
func TestBatchPolicySyncsDespiteAutoFlush(t *testing.T) {
	dir := t.TempDir()
	const group = 4
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncBatch, GroupCommit: group}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Each record is ~600KB, so every other append crosses the 1MB
	// auto-flush threshold.
	big := make([][]float32, 150)
	for i := range big {
		big[i] = make([]float32, 1024)
	}
	var lsn uint64
	for i := 0; i < group; i++ {
		if lsn, err = w.AppendInsert(int64(i*len(big)), big, 1024); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	synced := w.syncedLSN
	w.mu.Unlock()
	if synced < lsn {
		t.Fatalf("after %d records under group=%d, syncedLSN = %d, want >= %d", group, group, synced, lsn)
	}
}

// TestWriteFailurePoisonsWAL: a file write error must fail the log
// permanently — retrying the buffer whole after a partial write would
// duplicate the already-written prefix and garble the log while later
// commits kept succeeding.
func TestWriteFailurePoisonsWAL(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncNever}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the device failing out from under the log.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	big := make([][]float32, 300)
	for i := range big {
		big[i] = make([]float32, 1024)
	}
	for i := 0; i < 4 && err == nil; i++ {
		_, err = w.AppendInsert(int64(i*len(big)), big, 1024)
	}
	if err == nil {
		t.Fatal("write failure never surfaced")
	}
	// Every subsequent operation fails too, even ones small enough to
	// stay in the user-space buffer.
	if _, err := w.AppendDelete([]int64{1}); err == nil {
		t.Fatal("append succeeded on a poisoned WAL")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("sync succeeded on a poisoned WAL")
	}
	w.Crash()
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(Options{Dir: dir, Policy: SyncAlways}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		go func(g int) {
			lsn, err := w.AppendDelete([]int64{int64(g)})
			if err == nil {
				err = w.Commit(lsn)
			}
			errs <- err
		}(g)
	}
	for g := 0; g < n; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	w.Crash() // no graceful close: every committed record must still be on disk
	if ops := collectOps(t, dir, 0); len(ops) != n {
		t.Fatalf("replayed %d records, want %d", len(ops), n)
	}
}
