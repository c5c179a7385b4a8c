package vdms

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/persist"
)

// Durable collections. A Collection opened through OpenDurable pairs the
// in-memory engine with the persist subsystem's snapshot + write-ahead-log
// split, sharded the way the production VDMS backends the paper tunes
// persist Milvus-style segment storage per channel:
//
//	dir/
//	  MANIFEST          generation, shard count, dimension, metric, and the
//	                    served configuration with its config generation
//	  shard-0/          shard 0's snapshots + WAL (generation 0)
//	  shard-1/          ...
//	  gen-<G>/shard-0/  the same, after the G-th migration (persist/manifest.go)
//
// Each shard is an independent durability domain:
//
//   - every mutation routed to it (insert, delete, seal, compaction
//     commit) appends a record to its WAL under the same lock hold that
//     applies it, so each log's order is exactly its shard's
//     serialization order;
//   - acknowledgement durability follows Config.WALFsyncPolicy (never /
//     batch / always, group-committed) — concurrent inserts to different
//     shards fsync different files in parallel;
//   - each shard's compactor checkpoints after every committed pass, and
//     Close takes a final checkpoint per shard, so every log stays
//     bounded by its shard's churn.
//
// The manifest is the one durable copy of the configuration, so
// Reconfigure acknowledges only what a restart serves. Recovery
// (OpenDurable on a non-empty directory) reads it, then recovers every shard in
// parallel over the engine's worker pool: newest valid snapshot, WAL
// suffix replay, torn-tail truncation — shards never wait on each other.
// It is deterministic: segment indexes are rebuilt from raw rows with the
// same sequence-derived seeds the pre-crash engine used (see
// newSegmentIndex), so a recovered collection answers Search and
// SearchBatch bit-identically to the engine that crashed. One counter is
// approximate across recovery: CompactionPasses counts pass boundaries,
// which the WAL does not record (each pass's work is fully covered by its
// per-task commit records and usually by the snapshot the pass wrote).

// OpenDurable opens (or creates) a durable collection backed by the data
// directory dir. On a fresh directory it behaves like NewCollection plus
// a manifest recording cfg and expectedRows, and per-shard logging. On a
// directory with prior state it serves the configuration the manifest
// records, at its config generation, and cfg and expectedRows go unused;
// dim and metric must agree. Every shard is recovered (in parallel):
// newest valid snapshot, then the WAL suffix, a torn trailing record
// truncated. A manifest from before directories recorded their
// configuration is adopted once at cfg (at its own shard count), checked
// against the snapshots' index type and build parameters, and rewritten.
func OpenDurable(dir string, cfg Config, metric linalg.Metric, dim, expectedRows int) (*Collection, error) {
	if dir == "" {
		return nil, fmt.Errorf("vdms: OpenDurable requires a data directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	man, err := persist.LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	var seq uint64
	switch {
	case man == nil:
		legacy, err := persist.HasLegacyLayout(dir)
		if err != nil {
			return nil, err
		}
		if legacy {
			return nil, fmt.Errorf("vdms: %s holds a pre-sharding data layout (top-level snapshot/WAL files, no manifest); migrate it by replaying into a fresh directory", dir)
		}
	case man.Dim != dim:
		return nil, fmt.Errorf("vdms: manifest dimension %d, collection opened with %d", man.Dim, dim)
	case man.Metric != metric:
		return nil, fmt.Errorf("vdms: manifest metric %v, collection opened with %v", man.Metric, metric)
	case man.Config != nil:
		if err := json.Unmarshal(man.Config, &cfg); err != nil {
			return nil, fmt.Errorf("vdms: %s: recorded configuration: %w", dir, err)
		}
		seq, expectedRows = man.ConfigSeq, man.ExpectedRows
	case cfg.shardCount() != man.Shards:
		cfg.ShardCount = man.Shards // the id routing the directory holds
	}
	c, err := newCollection(&configGen{seq: seq, cfg: cfg}, metric, dim, expectedRows)
	if err != nil {
		return nil, err
	}
	c.dataDir = dir
	if man == nil {
		if man, err = c.writeManifest(c.gen.Load(), 0); err != nil {
			return nil, err
		}
	}
	// Generation directories not named by the manifest are the debris of a
	// migration that crashed before (or just after) its commit rename;
	// clearing them is best-effort — they cost disk, never correctness.
	_ = persist.RemoveStaleGenerations(dir, man)
	c.diskGen = man.Generation
	// Recover the shards in parallel: each replays only its own snapshot
	// and log, so recovery wall time is the slowest shard, not the sum.
	errs := make([]error, len(c.shards))
	parallel.Parallel(cfg.Parallelism, len(c.shards), func(i int) {
		errs[i] = c.shards[i].openDurable(man.ShardDir(dir, i))
	})
	if err := firstError(errs); err != nil {
		// Abandon whatever the other shards already opened.
		for _, s := range c.shards {
			if s.wal != nil {
				s.wal.Crash()
			}
		}
		return nil, err
	}
	if man.Config == nil { // adopted: the snapshots agreed with cfg
		if _, err := c.writeManifest(c.gen.Load(), man.Generation); err != nil {
			c.Crash()
			return nil, err
		}
	}
	// Seed the collection-wide id counter past every shard's watermark.
	var next int64
	for _, s := range c.shards {
		if s.nextID > next {
			next = s.nextID
		}
	}
	c.nextID.Store(next)
	// A compaction trigger that was pending at the crash is pending again
	// now; restart it the way the pre-crash engine would have.
	for _, s := range c.shards {
		s.mu.Lock()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	return c, nil
}

// writeManifest records g as the configuration layout generation diskGen
// serves, in a manifest that atomically replaces the directory's.
func (c *Collection) writeManifest(g *configGen, diskGen uint64) (*persist.Manifest, error) {
	cfg, _ := json.Marshal(g.cfg) // a validated Config always encodes
	m := &persist.Manifest{Shards: g.cfg.shardCount(), Dim: c.dim, Metric: c.metric, Generation: diskGen,
		Config: cfg, ConfigSeq: g.seq, ExpectedRows: c.expectedRows}
	return m, persist.WriteManifest(c.dataDir, m)
}

// openDurable recovers (or creates) one shard's durability domain rooted
// at sdir and leaves the shard with an open WAL.
func (s *shard) openDurable(sdir string) error {
	if err := os.MkdirAll(sdir, 0o777); err != nil {
		return err
	}
	snap, err := persist.LoadNewestSnapshot(sdir)
	if err != nil {
		return err
	}
	var after uint64
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			return err
		}
		after = snap.CheckpointLSN
	}
	nextLSN, err := persist.ReplayWAL(sdir, after, s.applyWALOp)
	if err != nil {
		return err
	}
	policy, group := s.config().walPolicy()
	w, err := persist.OpenWAL(persist.Options{Dir: sdir, Policy: policy, GroupCommit: group}, nextLSN)
	if err != nil {
		return err
	}
	s.wal = w
	s.dataDir = sdir
	s.ckptLSN = after
	s.lastCkpt.Store(after)
	return nil
}

// restoreSnapshot installs a decoded snapshot into an empty shard,
// rebuilding every segment index deterministically from its raw rows.
func (s *shard) restoreSnapshot(snap *persist.Snapshot) error {
	if snap.Dim != s.dim {
		return fmt.Errorf("vdms: snapshot dimension %d, collection opened with %d", snap.Dim, s.dim)
	}
	if snap.Metric != s.metric {
		return fmt.Errorf("vdms: snapshot metric %v, collection opened with %v", snap.Metric, s.metric)
	}
	cfg := s.config()
	if snap.IndexType != cfg.IndexType {
		return fmt.Errorf("vdms: snapshot index type %v, configuration says %v", snap.IndexType, cfg.IndexType)
	}
	if a, b := snap.Build, cfg.Build; a.NList != b.NList || a.M != b.M || a.NBits != b.NBits ||
		a.HNSWM != b.HNSWM || a.EfConstruction != b.EfConstruction || a.Seed != b.Seed {
		return fmt.Errorf("vdms: snapshot index build parameters differ from the configuration")
	}
	s.nextID = snap.NextID
	s.sealSeq = snap.SealSeq
	s.rows = snap.Rows
	s.compactionPasses = snap.CompactionPasses
	s.compactedSegments = snap.CompactedSegments
	s.reclaimedRows = snap.ReclaimedRows
	if len(snap.Tombstones) > 0 {
		s.tombstones = make(map[int64]struct{}, len(snap.Tombstones))
		for _, id := range snap.Tombstones {
			s.tombstones[id] = struct{}{}
		}
	}
	// Install the growing tail before landing segments: a segment whose
	// rebuild fails deterministically requeues its rows into growing, and
	// those must append to the tail, not be overwritten by it.
	if snap.Growing != nil && snap.Growing.Rows() > 0 {
		s.growing = snap.Growing
		s.growingIDs = snap.GrowingIDs
	}
	// Every segment enters the list index-pending, the builds overlap, and
	// the results land in snapshot order, so rows requeued by failed builds
	// reach the growing tail in the order a one-by-one rebuild left them.
	segs := make([]*sealedSegment, len(snap.Segments))
	for i, sn := range snap.Segments {
		segs[i] = &sealedSegment{seq: sn.Seq, store: sn.Store, ids: sn.IDs}
		s.insertSealedLocked(segs[i])
		if sn.Seq >= s.sealSeq {
			s.sealSeq = sn.Seq + 1
		}
	}
	lands, errs := s.buildSegments(cfg.Parallelism, segs)
	for i, seg := range segs {
		s.landSegmentLocked(seg, lands[i], errs[i])
	}
	return nil
}

// applyWALOp replays one WAL record onto the recovering shard. It runs
// before the shard is shared, so no locking is involved; seals and
// compaction rebuilds happen synchronously, in log order, which is
// exactly the serialization order of this shard in the pre-crash engine.
func (s *shard) applyWALOp(op *persist.WALOp) error {
	switch op.Type {
	case persist.RecInsert:
		if op.Dim != s.dim {
			return fmt.Errorf("vdms: WAL replay: insert record dimension %d, collection has %d", op.Dim, s.dim)
		}
		for i := 0; i < op.Count; i++ {
			s.applyInsertRowLocked(op.FirstID+int64(i), op.Vectors[i*op.Dim:(i+1)*op.Dim])
		}
	case persist.RecInsertIDs:
		if op.Dim != s.dim {
			return fmt.Errorf("vdms: WAL replay: insert record dimension %d, collection has %d", op.Dim, s.dim)
		}
		for i, id := range op.IDs {
			s.applyInsertRowLocked(id, op.Vectors[i*op.Dim:(i+1)*op.Dim])
		}
	case persist.RecDelete:
		s.deleteLocked(op.IDs, nil)
	case persist.RecFlush:
		s.replayFlush(op.Seq)
	case persist.RecCompactCommit:
		return s.replayCompactCommit(op)
	default:
		return fmt.Errorf("vdms: WAL replay: unexpected record type %d", op.Type)
	}
	return nil
}

// replayFlush replays a RecFlush record: seal the growing tail as segment
// seq and build its index synchronously.
func (s *shard) replayFlush(seq int64) {
	if seq >= s.sealSeq {
		s.sealSeq = seq + 1
	}
	if s.growingRowsLocked() > 0 {
		seg := s.sealGrowingLocked(seq)
		l, err := s.buildSegment(seg)
		s.landSegmentLocked(seg, l, err)
	}
}

// replayCompactCommit replays one committed compaction task: rebuild the
// replacement segment from the recorded surviving ids and drop the
// sources, exactly as the pre-crash commit did.
func (s *shard) replayCompactCommit(op *persist.WALOp) error {
	if op.Seq >= s.sealSeq {
		s.sealSeq = op.Seq + 1
	}
	var sources []*sealedSegment
	for _, seq := range op.Sources {
		var found *sealedSegment
		for _, seg := range s.sealed {
			if seg.seq == seq {
				found = seg
				break
			}
		}
		if found == nil {
			return fmt.Errorf("vdms: WAL replay: compaction commit references unknown segment seq %d", seq)
		}
		sources = append(sources, found)
	}
	live := make(map[int64]struct{}, len(op.LiveIDs))
	for _, id := range op.LiveIDs {
		live[id] = struct{}{}
	}
	in := compactInput{store: linalg.NewMatrix(s.dim, len(op.LiveIDs)), dropped: op.Dropped}
	for _, seg := range sources {
		for i, id := range seg.ids {
			if _, ok := live[id]; ok {
				in.store.AppendRow(seg.row(i))
				in.ids = append(in.ids, id)
			}
		}
	}
	if len(in.ids) != len(op.LiveIDs) {
		return fmt.Errorf("vdms: WAL replay: compaction commit lists %d surviving ids, sources hold %d of them", len(op.LiveIDs), len(in.ids))
	}
	index.SortRowsByID(in.store, in.ids)
	seg, err := s.buildCompacted(in, op.Seq)
	if err != nil {
		// Mirror the live engine: sources stay, excluded from future plans.
		s.buildErrOnce.Do(func() { s.buildErr = err })
		for _, src := range sources {
			src.noCompact = true
		}
		return nil
	}
	s.removeSealedLocked(sources)
	if seg != nil {
		s.insertSealedLocked(seg)
	}
	for _, id := range op.Dropped {
		delete(s.tombstones, id)
	}
	s.compactedSegments += int64(len(sources))
	s.reclaimedRows += int64(len(op.Dropped))
	return nil
}

// snapshotLocked captures the shard's full durable state. Sealed arenas
// are immutable, so the snapshot references them directly — through the
// segment's row order when it reads its rows back from its index, so the
// bytes are the id-ordered rows either way; the growing tail is mutable
// and gets copied. Callers hold s.mu.
func (s *shard) snapshotLocked() *persist.Snapshot {
	cfg := s.config()
	snap := &persist.Snapshot{
		Dim:               s.dim,
		Metric:            s.metric,
		IndexType:         cfg.IndexType,
		Build:             cfg.Build,
		NextID:            s.nextID,
		SealSeq:           s.sealSeq,
		Rows:              s.rows,
		CompactionPasses:  s.compactionPasses,
		CompactedSegments: s.compactedSegments,
		ReclaimedRows:     s.reclaimedRows,
	}
	// Migration snapshots are taken before the shard has a WAL: their
	// checkpoint boundary is LSN 0 (the new log starts at 1 and replays
	// whole).
	if s.wal != nil {
		snap.CheckpointLSN = s.wal.LastLSN()
	}
	// In-flight builds are not waited for: every segment snapshots as its
	// rows + seq, and recovery rebuilds the identical index.
	for _, seg := range s.sealed {
		snap.Segments = append(snap.Segments, persist.SnapSegment{Seq: seg.seq, IDs: seg.ids, Store: seg.store, Order: seg.pos})
	}
	if n := s.growingRowsLocked(); n > 0 {
		g := linalg.NewMatrix(s.dim, n)
		for i := 0; i < n; i++ {
			g.AppendRow(s.growing.Row(i))
		}
		snap.Growing = g
		snap.GrowingIDs = append([]int64(nil), s.growingIDs...)
	}
	if len(s.tombstones) > 0 {
		snap.Tombstones = make([]int64, 0, len(s.tombstones))
		for id := range s.tombstones {
			snap.Tombstones = append(snap.Tombstones, id)
		}
		sort.Slice(snap.Tombstones, func(i, j int) bool { return snap.Tombstones[i] < snap.Tombstones[j] })
	}
	return snap
}

// checkpoint persists a snapshot of this shard's state and truncates its
// WAL to the records beyond it. The previous snapshot generation (and the
// WAL files it needs) is kept until the next checkpoint, so a damaged
// newest snapshot still leaves a recoverable shard directory. On a
// memory-only shard it is a no-op.
func (s *shard) checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Drain the log to disk before taking the shard lock: Rotate below
	// fsyncs while this shard's Searches and inserts are blocked on s.mu,
	// so this pre-sync (which blocks nobody) leaves it almost nothing to
	// flush — only the records appended in the gap between here and the
	// lock.
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("vdms: syncing WAL before checkpoint: %w", err)
	}
	s.mu.Lock()
	snap := s.snapshotLocked()
	// Rotate inside the same lock hold that captured the state: records
	// after the snapshot boundary land in the new file, so truncation
	// can simply drop whole old files.
	err := s.wal.Rotate()
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("vdms: rotating WAL: %w", err)
	}
	if err := persist.WriteSnapshot(s.dataDir, snap); err != nil {
		// The snapshot failed but the rotated WAL files all survive:
		// recovery still has the previous snapshot plus a complete log.
		return fmt.Errorf("vdms: writing snapshot: %w", err)
	}
	keep := s.ckptLSN // the generation before this one
	s.ckptLSN = snap.CheckpointLSN
	s.lastCkpt.Store(snap.CheckpointLSN)
	// Retention trimming is best-effort: a failure here costs disk, not
	// durability, and the next checkpoint retries it.
	_ = persist.RemoveObsoleteSnapshots(s.dataDir, keep)
	_ = s.wal.RemoveObsolete(keep)
	return nil
}

// Checkpoint persists a snapshot of every shard's current state and
// truncates each shard's WAL to the records beyond it. Shards checkpoint
// independently and in parallel (each under its own locks and into its
// own directory), so an explicit checkpoint costs the slowest shard's
// snapshot, not the sum; the first failure (in shard order) is returned,
// leaving failed shards to their next compactor-driven or explicit
// checkpoint. On a memory-only collection it is a no-op.
func (c *Collection) Checkpoint() error {
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return fmt.Errorf("vdms: collection closed")
	}
	errs := make([]error, len(c.shards))
	parallel.Parallel(len(c.shards), len(c.shards), func(i int) {
		errs[i] = c.shards[i].checkpoint()
	})
	return firstError(errs)
}

// DisableAutoCheckpoint stops every shard's compactor from checkpointing
// after each committed pass: WAL records then accumulate until an
// explicit Checkpoint or Close. Operators who prefer scheduled
// checkpoints (or tests that must exercise long log replays, compaction
// commits included) use this; durability is unaffected — only the
// recovery replay length grows.
func (c *Collection) DisableAutoCheckpoint() {
	c.router.RLock()
	defer c.router.RUnlock()
	for _, s := range c.shards {
		s.mu.Lock()
		s.noAutoCkpt = true
		s.mu.Unlock()
	}
}

// Crash abandons the collection the way a process crash would: background
// work is stopped, but no flush, snapshot, or WAL sync happens, and
// records still buffered in user space are discarded. What survives on
// disk is exactly what the fsync policy had made durable, shard by shard.
// It exists for crash-recovery testing; production shutdown is Close.
func (c *Collection) Crash() {
	c.closed.Store(true)
	// Serialized against a migration cutover the same way Close is: the
	// cutover either already swapped the shard set or will observe closed
	// and abort.
	c.router.Lock()
	defer c.router.Unlock()
	for _, s := range c.shards {
		s.crash()
	}
}
