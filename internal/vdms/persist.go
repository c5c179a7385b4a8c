package vdms

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/persist"
)

// Durable collections. A Collection opened through OpenDurable pairs the
// in-memory engine with the persist subsystem's snapshot + write-ahead-log
// split, the way Milvus keeps one ordered log per collection beside its
// segment storage:
//
//	dir/
//	  MANIFEST          generation, shard count, dimension, metric, and the
//	                    served configuration with its config generation
//	  wal/              the collection's one WAL (generation 0)
//	  shard-0/          shard 0's snapshots
//	  shard-1/          ...
//	  gen-<G>/          the same, after the G-th migration (persist/manifest.go)
//
// A config generation is one durability domain with one log. Every
// mutation a shard applies (insert, delete, seal, compaction commit)
// appends a record under the shard lock hold that applies it, so each
// shard's records are in its serialization order; a write commits once,
// under Config.WALFsyncPolicy, however many shards it spans (route); each
// shard snapshots at the log head after every committed compaction pass
// and at Close, and a log file goes once every shard's retained snapshot
// covers it. The manifest is the one durable copy of the configuration,
// so Reconfigure acknowledges only what a restart serves.
//
// Recovery (recover) is deterministic: segment indexes are rebuilt from
// raw rows with the same sequence-derived seeds the pre-crash engine used
// (see newSegmentIndex), so a recovered collection answers bit-identically
// to the engine that crashed. Only CompactionPasses is approximate: the
// WAL does not record pass boundaries (each pass's work is covered by its
// per-task commit records and usually by the snapshot the pass wrote).

// OpenDurable opens (or creates) a durable collection backed by the data
// directory dir. On a fresh directory it behaves like NewCollection plus
// a manifest recording cfg and expectedRows, and logging. On a directory
// with prior state it serves the configuration the manifest records, at
// its config generation; dim and metric must agree, and every recovered
// row must pass Insert's checks. A manifest without a configuration is
// adopted at cfg (at its own shard count), checked against the snapshots.
// A directory from before manifest version 4, with a log per shard, is
// recovered through those logs and committed as the next generation.
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
		man = c.manifest(c.gen.Load(), 0)
		if err := persist.WriteManifest(dir, man); err != nil {
			return nil, err
		}
	}
	// Other generations' directories are a crashed migration's debris;
	// clearing them is best-effort — they cost disk, never correctness.
	_ = persist.RemoveStaleGenerations(dir, man)
	if err := c.recover(man); err != nil {
		crashSet(c.shards)
		return nil, err
	}
	if man.Version < persist.ManifestVersion { // commit it as a migration would
		if man, err = c.persistGeneration(c.shards, c.gen.Load(), man.Generation+1); err == nil {
			err = persist.WriteManifest(dir, man)
		}
		if err != nil {
			crashSet(c.shards)
			return nil, fmt.Errorf("vdms: adopting %s: %w", dir, err)
		}
		_ = persist.RemoveStaleGenerations(dir, man)
	}
	c.diskGen = man.Generation
	// Seed the collection-wide id counter past every shard's watermark,
	// and restart a compaction trigger that was pending at the crash, the
	// way the pre-crash engine would have.
	for _, s := range c.shards {
		c.nextID.Store(max(c.nextID.Load(), s.nextID))
		s.mu.Lock()
		s.maybeCompactLocked()
		s.mu.Unlock()
	}
	return c, nil
}

// manifest records g as the configuration layout generation diskGen
// serves.
func (c *Collection) manifest(g *configGen, diskGen uint64) *persist.Manifest {
	cfg, _ := json.Marshal(g.cfg) // a validated Config always encodes
	return &persist.Manifest{Shards: g.cfg.shardCount(), Dim: c.dim, Metric: c.metric, Generation: diskGen,
		Config: cfg, ConfigSeq: g.seq, ExpectedRows: c.expectedRows}
}

// genLog is one config generation's write-ahead log, shared by its
// shards. keep[i] is the LSN shard i's oldest retained snapshot covers:
// the log holds every record past the smallest.
type genLog struct {
	*persist.WAL
	mu   sync.Mutex
	keep []uint64
}

// openLog opens the log of man's generation, its next record at nextLSN.
func (c *Collection) openLog(man *persist.Manifest, cfg *Config, nextLSN uint64) (*genLog, error) {
	policy, group := cfg.walPolicy()
	w, err := persist.OpenWAL(persist.Options{Dir: man.LogDir(c.dataDir), Policy: policy, GroupCommit: group}, nextLSN)
	return &genLog{WAL: w, keep: make([]uint64, man.Shards)}, err
}

// crashSet abandons a shard set and its log as a process crash would.
func crashSet(shards []*shard) {
	for _, s := range shards {
		s.crash()
	}
	if l := shards[0].wal; l != nil {
		l.Crash()
	}
}

// persistGeneration writes shards, serving g, as layout generation gen —
// a fresh log, and every shard's snapshot at LSN 0 taken in the lock hold
// that attaches the log — and returns the manifest that commits it.
func (c *Collection) persistGeneration(shards []*shard, g *configGen, gen uint64) (man *persist.Manifest, err error) {
	man = c.manifest(g, gen)
	l, err := c.openLog(man, &g.cfg, 1)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			l.Crash()
		}
	}()
	for i, s := range shards {
		if err := c.step(fmt.Sprintf("snapshot-%d", i)); err != nil {
			return nil, err
		}
		sdir := man.ShardDir(c.dataDir, i)
		if err := os.MkdirAll(sdir, 0o777); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.wal, s.dataDir, s.ckptLSN = l, sdir, 0
		snap := s.snapshotLocked()
		s.mu.Unlock()
		if err := persist.WriteSnapshot(sdir, snap); err != nil {
			return nil, fmt.Errorf("vdms: persisting shard %d: %w", i, err)
		}
	}
	return man, nil
}

// recover restores every shard's newest valid snapshot, in parallel, then
// the log records past it. Before manifest version 4 a shard replays a
// log of its own; since, the generation's one log is read once, from the
// oldest snapshot, and every shard applies the records past its own
// snapshot (applyWALOp), in parallel.
func (c *Collection) recover(man *persist.Manifest) error {
	n := len(c.shards)
	errs := make([]error, n)
	parallel.Parallel(c.Config().Parallelism, n, func(i int) {
		s, p := c.shards[i], &partition{}
		s.dataDir = man.ShardDir(c.dataDir, i)
		snap, err := persist.LoadNewestSnapshot(s.dataDir)
		if err == nil && snap != nil {
			s.ckptLSN = snap.CheckpointLSN
			err = s.restoreSnapshot(snap)
		}
		if err == nil && man.Version < persist.ManifestVersion {
			_, err = persist.ReplayWAL(s.dataDir, s.ckptLSN, func(op *persist.WALOp) error {
				op.Shard = i // the shard's own log
				return s.applyWALOp(op, p)
			})
		}
		if err == nil {
			err = os.MkdirAll(s.dataDir, 0o777)
		}
		errs[i] = err
	})
	if err := firstError(errs); err != nil || man.Version < persist.ManifestVersion {
		return err
	}
	from, last := c.shards[0].ckptLSN, uint64(0)
	for _, s := range c.shards {
		from, last = min(from, s.ckptLSN), max(last, s.ckptLSN)
	}
	var ops []persist.WALOp
	next, err := persist.ReplayWAL(man.LogDir(c.dataDir), from, func(op *persist.WALOp) error {
		if (op.Type == persist.RecFlush || op.Type == persist.RecCompactCommit) && op.Shard >= n {
			return &persist.CorruptError{Path: man.LogDir(c.dataDir), Reason: fmt.Sprintf("record LSN %d names shard %d of %d", op.LSN, op.Shard, n)}
		}
		ops = append(ops, *op)
		return nil
	})
	if err != nil {
		return err
	}
	parallel.Parallel(c.Config().Parallelism, n, func(i int) {
		s, p := c.shards[i], &partition{}
		for j := 0; j < len(ops) && errs[i] == nil; j++ {
			if ops[j].LSN > s.ckptLSN {
				errs[i] = s.applyWALOp(&ops[j], p)
			}
		}
	})
	if err := firstError(errs); err != nil {
		return err
	}
	// A torn log can end before the newest snapshot: no LSN is reused.
	l, err := c.openLog(man, c.shards[0].config(), max(next, last+1))
	if err != nil {
		return err
	}
	for i, s := range c.shards {
		s.wal, l.keep[i] = l, s.ckptLSN
	}
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
	s.nextID, s.sealSeq, s.rows = snap.NextID, snap.SealSeq, snap.Rows
	s.compactionPasses, s.compactedSegments, s.reclaimedRows = snap.CompactionPasses, snap.CompactedSegments, snap.ReclaimedRows
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
		if err := s.checkRows("snapshot growing tail", snap.Growing, snap.GrowingIDs); err != nil {
			return err
		}
		s.growing = snap.Growing
		s.growingIDs = snap.GrowingIDs
	}
	// Every segment enters the list index-pending, the builds overlap, and
	// the results land in snapshot order, so rows requeued by failed builds
	// reach the growing tail in the order a one-by-one rebuild left them.
	segs := make([]*sealedSegment, len(snap.Segments))
	for i, sn := range snap.Segments {
		if err := s.checkRows(fmt.Sprintf("snapshot segment seq %d", sn.Seq), sn.Store, sn.IDs); err != nil {
			return err
		}
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

// checkRows refuses a restored row that Insert would have refused (see
// vectorFault), naming the shard, where the row came from, and its id.
func (s *shard) checkRows(where string, rows *linalg.Matrix, ids []int64) error {
	for i, id := range ids {
		if f := vectorFault(s.metric, s.dim, rows.Row(i)); f != "" {
			return fmt.Errorf("vdms: shard %d, %s: id %d %s", s.slot, where, id, f)
		}
	}
	return nil
}

// applyWALOp replays one WAL record onto the recovering shard. It runs
// before the shard is shared, so no locking is involved; seals and
// compaction rebuilds happen synchronously, in log order, which is
// exactly the serialization order of this shard in the pre-crash engine.
// Of an insert or delete it applies the ids the partition p routes to
// this shard — the split the router made when it logged the write — and
// a seal or compaction commit only if it names this shard.
func (s *shard) applyWALOp(op *persist.WALOp, p *partition) error {
	switch op.Type {
	case persist.RecInsert, persist.RecInsertIDs, persist.RecDelete:
		ids, rows := op.IDs, [][]float32(nil)
		if op.Type != persist.RecDelete {
			rows = make([][]float32, op.Count)
			for i := range rows {
				if op.Type == persist.RecInsert {
					ids = append(ids, op.FirstID+int64(i))
				}
				rows[i] = op.Vectors[i*op.Dim : (i+1)*op.Dim]
			}
		}
		p.split(ids, rows, s.config().shardCount())
		if ids, rows = p.ids[s.slot], p.vecs[s.slot]; op.Type == persist.RecDelete {
			s.deleteLocked(ids, nil)
			return nil
		}
		for i, id := range ids {
			if f := vectorFault(s.metric, s.dim, rows[i]); f != "" {
				return fmt.Errorf("vdms: shard %d, WAL record LSN %d: id %d %s", s.slot, op.LSN, id, f)
			}
			s.applyInsertRowLocked(id, rows[i])
		}
	case persist.RecFlush:
		if op.Shard == s.slot {
			s.replayFlush(op.Seq)
		}
	case persist.RecCompactCommit:
		if op.Shard == s.slot {
			return s.replayCompactCommit(op)
		}
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
		s.failLocked(err)
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
	// The checkpoint boundary is the log head: every record of this shard
	// up to it was appended under s.mu and is applied; records past it,
	// this shard's or another's, are not in the snapshot. A new
	// generation's snapshots are taken at a fresh log's head, LSN 0.
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

// checkpoint persists a snapshot of this shard's state at the log head.
// The previous snapshot (and the log it needs) is kept until the next
// checkpoint, so a damaged newest snapshot still has a fallback. On a
// memory-only shard it is a no-op.
func (s *shard) checkpoint() error {
	if s.wal == nil {
		return nil
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	snap := s.snapshotLocked()
	s.mu.Unlock()
	// Rotating fsyncs the log past the snapshot's LSN before the snapshot
	// exists, and starts a file the older ones can be dropped behind.
	if err := s.wal.Rotate(); err != nil {
		return fmt.Errorf("vdms: rotating WAL: %w", err)
	}
	if err := persist.WriteSnapshot(s.dataDir, snap); err != nil {
		// The snapshot failed but the log files all survive: recovery
		// still has the previous snapshot plus a complete log.
		return fmt.Errorf("vdms: writing snapshot: %w", err)
	}
	keep := s.ckptLSN // the generation before this one
	s.mu.Lock()
	s.ckptLSN = snap.CheckpointLSN
	s.mu.Unlock()
	// Retention trimming is best-effort: a failure here costs disk, not
	// durability, and the next checkpoint retries it.
	_ = persist.RemoveObsoleteSnapshots(s.dataDir, keep)
	s.wal.mu.Lock()
	s.wal.keep[s.slot] = keep
	_ = s.wal.RemoveObsolete(slices.Min(s.wal.keep))
	s.wal.mu.Unlock()
	return nil
}

// Checkpoint persists a snapshot of every shard's current state and
// truncates the log to what the oldest does not cover. Shards checkpoint
// independently and in parallel, so it costs the slowest shard's
// snapshot, not the sum; the first failure (in shard order) is returned,
// leaving failed shards to their next checkpoint. On a memory-only
// collection it is a no-op.
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
// disk is exactly what the fsync policy had made durable. It exists for
// crash-recovery testing; production shutdown is Close.
func (c *Collection) Crash() {
	c.closed.Store(true)
	// Serialized against a migration cutover the same way Close is: the
	// cutover either already swapped the shard set or will observe closed
	// and abort.
	c.router.Lock()
	defer c.router.Unlock()
	crashSet(c.shards)
}
