package vdms

import (
	"fmt"
	"sort"
	"sync"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
	"vdtuner/internal/persist"
)

// Online reconfiguration: applying a new Config to a live Collection
// without downtime — the engine half of the paper's tuner→engine loop.
//
// Hot knobs (the rows of Knobs not marked Cold; see coldEqual) take effect
// by publishing a new immutable config generation: a configGen is written
// atomically to the collection and every shard, operations load it once
// at their start, and no lock beyond the ones they already hold is
// involved, so a hot swap costs the search path nothing. Cold knobs — the
// rows marked Cold, plus the index type and build seed — change the
// physical layout, so they take effect via a migration:
//
//  1. capture (router write lock): the tombstone-filtered (id, vector)
//     content of every shard is captured — sealed arenas by reference
//     (immutable), the growing tails by copy — and a delta
//     starts recording every write that lands from here on;
//  2. build (off every lock): the rows are fed, in ascending id order,
//     through the new configuration's routing into a freshly built shard
//     set. Ascending order makes each new shard see exactly the row
//     sequence a fresh build at the new config would have seen, so seal
//     boundaries, segment seqs, and the seq-derived index seeds — and
//     therefore the built indexes — are bit-identical to that fresh
//     build. Rows are appended raw: they are already canonical (angular
//     inputs were normalized at original insert), and re-normalizing
//     would perturb bits;
//  3. persist (durable collections): the next generation's sibling
//     directory, gen-<G+1>/, gets a fresh log and a full snapshot of each
//     new shard (checkpoint LSN 0; persistGeneration), leaving the live
//     generation untouched;
//  4. cutover (router write lock): the delta is replayed onto the new
//     shards through the normal insert/delete paths (WAL-logged like any
//     write), the new log is synced, and — the commit point — the new
//     MANIFEST is atomically renamed into place; then the shard set and
//     config generation are swapped and the old shards retired.
//
// A crash anywhere before the manifest rename recovers the old
// generation (whose log kept receiving every write until cutover); a
// crash anywhere after it recovers the new one. Directories of
// generations the manifest does not name are removed at the next open.

// configGen is one immutable published configuration: the Config plus a
// sequence number that advances on every successful Reconfigure. It is
// shared via atomic pointers and never modified after publication.
type configGen struct {
	seq uint64
	cfg Config
}

// migrationDelta records the writes that land on the old shard set
// between a migration's capture and its cutover, for replay onto the new
// shards. Appends happen under the collection's router read lock plus mu;
// the cutover reads it under the router write lock, which excludes every
// appender.
type migrationDelta struct {
	mu      sync.Mutex
	batches []deltaBatch
	deletes []int64
}

type deltaBatch struct {
	ids  []int64
	vecs [][]float32
}

// addInserts records one acknowledged insert batch. Vectors are copied
// (callers may reuse their slices) in raw, pre-normalization form: the
// replay goes through the normal insert path, which normalizes exactly
// the way the original insert did.
func (d *migrationDelta) addInserts(ids []int64, vecs [][]float32) {
	cpIDs := append([]int64(nil), ids...)
	cpVecs := make([][]float32, len(vecs))
	for i, v := range vecs {
		cpVecs[i] = linalg.Clone(v)
	}
	d.mu.Lock()
	d.batches = append(d.batches, deltaBatch{ids: cpIDs, vecs: cpVecs})
	d.mu.Unlock()
}

// addDeletes records ids that were actually deleted (tombstoned or
// pruned) on the old shards — never merely requested ones, which could
// kill a row later created under that id within the migration window.
func (d *migrationDelta) addDeletes(ids []int64) {
	if len(ids) == 0 {
		return
	}
	d.mu.Lock()
	d.deletes = append(d.deletes, ids...)
	d.mu.Unlock()
}

// SetReconfigureHook installs a hook called before each named migration
// step ("capture", "build", "sealed", "snapshot-<i>", "cutover", "delta",
// "sync", "manifest") and after the commit ("committed", "cleanup"), and
// around a durable hot swap's manifest rename ("swap-manifest" before it,
// "swap-committed" after the publication). A non-nil error aborts the
// migration or hot swap at that point with no cleanup,
// leaving memory and disk exactly as they were — which is what the
// crash-matrix tests need to simulate a kill at every step. An error at
// or after "committed" cannot un-commit: the migration has already
// happened. Testing only; pass nil to remove.
func (c *Collection) SetReconfigureHook(h func(step string) error) {
	c.reconfigMu.Lock()
	c.hook = h
	c.reconfigMu.Unlock()
}

// step fires the reconfigure hook. Callers hold reconfigMu.
func (c *Collection) step(name string) error {
	if c.hook == nil {
		return nil
	}
	return c.hook(name)
}

// Reconfigure applies cfg to the live collection and returns the new
// config generation's sequence number. Hot-knob changes publish a new
// generation atomically — concurrent searches and inserts switch between
// operations, never inside one, and none fails. Cold-knob changes (the
// Cold column of Knobs: index shape, segment sizing, shard count) run the
// migration documented at the top of this file: reads and writes
// keep being served by the old shape while the new one is built in the
// background, with only the capture and the final cutover excluding them
// briefly. Reconfigure calls serialize; the collection stays fully
// usable throughout.
func (c *Collection) Reconfigure(cfg Config) (uint64, error) {
	if err := ValidateConfig(cfg); err != nil {
		return 0, err
	}
	if c.closed.Load() {
		return 0, fmt.Errorf("vdms: collection closed")
	}
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	if coldEqual(c.gen.Load().cfg, cfg) {
		return c.hotSwap(cfg)
	}
	return c.migrate(cfg)
}

// hotSwap publishes cfg as a new generation on the collection and every
// shard, pushes the durability knobs into the open log, and re-checks
// compaction triggers (a lowered trigger ratio may warrant a pass right
// now). A durable collection's manifest records the generation first.
// Callers hold reconfigMu.
func (c *Collection) hotSwap(cfg Config) (uint64, error) {
	g := &configGen{seq: c.gen.Load().seq + 1, cfg: cfg}
	if c.dataDir != "" {
		if err := c.step("swap-manifest"); err != nil {
			return 0, err
		}
		if err := persist.WriteManifest(c.dataDir, c.manifest(g, c.diskGen)); err != nil {
			return 0, fmt.Errorf("vdms: recording hot swap: %w", err)
		}
	}
	c.router.RLock()
	c.gen.Store(g)
	for _, s := range c.shards {
		s.gen.Store(g)
	}
	if l := c.shards[0].wal; l != nil {
		l.SetPolicy(cfg.walPolicy())
	}
	for _, s := range c.shards {
		s.mu.Lock()
		s.maybeCompactLocked() // a no-op on a closed shard
		s.mu.Unlock()
	}
	c.router.RUnlock()
	if c.dataDir != "" {
		return g.seq, c.step("swap-committed")
	}
	return g.seq, nil
}

// idRowSorter sorts a captured (id, row) pairing by ascending id.
type idRowSorter struct {
	ids  []int64
	rows [][]float32
}

func (p *idRowSorter) Len() int           { return len(p.ids) }
func (p *idRowSorter) Less(i, j int) bool { return p.ids[i] < p.ids[j] }
func (p *idRowSorter) Swap(i, j int) {
	p.ids[i], p.ids[j] = p.ids[j], p.ids[i]
	p.rows[i], p.rows[j] = p.rows[j], p.rows[i]
}

// captureLocked gathers the collection's live (id, vector) content in
// ascending id order: sealed rows by reference (their arenas are
// immutable), growing rows by copy (those arenas mutate in place).
// Callers hold the router write lock; each shard's lock is taken for
// reading against its background builders and compactors.
func (c *Collection) captureLocked() ([]int64, [][]float32) {
	var ids []int64
	var rows [][]float32
	for _, s := range c.shards {
		s.mu.RLock()
		s.forEachLiveRowLocked(func(id int64, row []float32, growing bool) bool {
			if growing {
				row = linalg.Clone(row)
			}
			ids = append(ids, id)
			rows = append(rows, row)
			return true
		})
		s.mu.RUnlock()
	}
	sort.Sort(&idRowSorter{ids: ids, rows: rows})
	return ids, rows
}

// migrateRows feeds captured rows into a new shard in the order given.
// The rows are canonical engine rows (already normalized for angular
// metrics) and are appended raw — re-normalizing would perturb bits and
// break the post-migration ≡ fresh-build contract. Seal thresholds fire
// exactly as they would during live inserts of the same sequence.
func (s *shard) migrateRows(ids []int64, rows [][]float32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, v := range rows {
		s.appendGrowingLocked(ids[i], v)
		if s.growing.Rows() >= s.sealRows {
			s.sealLocked()
		}
	}
}

// abortMigration unwinds a migration that failed before its commit
// point: the old shards keep serving (they never stopped), the delta is
// dropped, and the half-built new shards are abandoned crash-style. The
// on-disk state is deliberately left at the failure point — stale
// generation directories are removed at the next open — so hook-injected
// failures model a process kill faithfully.
func (c *Collection) abortMigration(newShards []*shard) {
	c.router.Lock()
	c.abortMigrationLocked(newShards)
}

// abortMigrationLocked is abortMigration for a caller already holding the
// router write lock (the cutover); it releases the lock.
func (c *Collection) abortMigrationLocked(newShards []*shard) {
	c.delta = nil
	c.migrating.Store(false)
	c.router.Unlock()
	if newShards != nil {
		crashSet(newShards)
	}
}

// migrate rebuilds the collection at cfg's cold shape and cuts over; see
// the file comment for the protocol and crash-safety argument. Callers
// hold reconfigMu.
func (c *Collection) migrate(cfg Config) (uint64, error) {
	durable := c.dataDir != ""

	// Phase 1: capture under the router write lock. Writers are excluded,
	// so the delta's recording window starts exactly at the captured
	// state.
	if err := c.step("capture"); err != nil {
		return 0, err
	}
	c.router.Lock()
	if c.closed.Load() {
		c.router.Unlock()
		return 0, fmt.Errorf("vdms: collection closed")
	}
	oldGen := c.gen.Load()
	capIDs, capRows := c.captureLocked()
	s0 := c.shards[0]
	s0.mu.RLock()
	noAutoCkpt := s0.noAutoCkpt
	s0.mu.RUnlock()
	c.delta = &migrationDelta{}
	c.migrating.Store(true)
	c.router.Unlock()

	// Phase 2: build the new shape off every lock; old shards keep
	// serving and the delta records their writes.
	if err := c.step("build"); err != nil {
		c.abortMigration(nil)
		return 0, err
	}
	newGen := &configGen{seq: oldGen.seq + 1, cfg: cfg}
	newShards := newShardSet(newGen, c.metric, c.dim, c.expectedRows)
	n := len(newShards)
	for _, s := range newShards {
		s.noAutoCkpt = noAutoCkpt
	}
	// One partition serves the whole migration, split by split: the
	// captured rows here, then each delta batch at cutover.
	var p partition
	p.split(capIDs, capRows, n)
	parallel.Parallel(cfg.Parallelism, n, func(i int) {
		newShards[i].migrateRows(p.ids[i], p.vecs[i])
	})

	// Wait out the index builds so a build failure aborts the migration
	// here instead of surfacing as a mysterious post-cutover error.
	if err := c.step("sealed"); err != nil {
		c.abortMigration(newShards)
		return 0, err
	}
	if err := quiesceAll(newShards); err != nil {
		c.abortMigration(newShards)
		return 0, fmt.Errorf("vdms: building migrated shards: %w", err)
	}

	// Phase 3 (durable): write the new generation's layout into its
	// sibling directory. The live generation is untouched; nothing here
	// is visible to recovery until the manifest rename.
	var newMan *persist.Manifest
	if durable {
		var err error
		if newMan, err = c.persistGeneration(newShards, newGen, c.diskGen+1); err != nil {
			c.abortMigration(newShards)
			return 0, fmt.Errorf("vdms: persisting migrated shards: %w", err)
		}
	}

	// Phase 4: cutover under the router write lock.
	if err := c.step("cutover"); err != nil {
		c.abortMigration(newShards)
		return 0, err
	}
	c.router.Lock()
	abortLocked := func(err error) (uint64, error) {
		c.abortMigrationLocked(newShards)
		return 0, err
	}
	if c.closed.Load() {
		return abortLocked(fmt.Errorf("vdms: collection closed"))
	}
	delta := c.delta

	// Replay the delta through the normal write paths (WAL-logged like
	// any write): every insert batch in arrival order, then every actual
	// delete. Ids are never reused, so inserts-then-deletes yields the
	// same final state as any interleaving that really happened.
	if err := c.step("delta"); err != nil {
		return abortLocked(err)
	}
	for _, b := range delta.batches {
		p.split(b.ids, b.vecs, n)
		for si, part := range p.ids {
			if len(part) == 0 {
				continue
			}
			if _, err := newShards[si].insert(part, p.vecs[si]); err != nil {
				return abortLocked(fmt.Errorf("vdms: replaying migration delta: %w", err))
			}
		}
	}
	p.split(delta.deletes, nil, n)
	for si, part := range p.ids {
		if len(part) == 0 {
			continue
		}
		if _, _, err := newShards[si].delete(part, nil); err != nil {
			return abortLocked(fmt.Errorf("vdms: replaying migration delta: %w", err))
		}
	}

	if durable {
		// Everything the new generation needs must be on disk before the
		// rename makes it current.
		if err := c.step("sync"); err != nil {
			return abortLocked(err)
		}
		if err := newShards[0].wal.Sync(); err != nil {
			return abortLocked(fmt.Errorf("vdms: syncing migrated WAL: %w", err))
		}
		if err := c.step("manifest"); err != nil {
			return abortLocked(err)
		}
		// The commit point: after this rename, recovery sees the new
		// generation and serves its configuration; before it, the old
		// (whose log recorded every write up to this cutover, delta
		// included).
		if err := persist.WriteManifest(c.dataDir, newMan); err != nil {
			return abortLocked(fmt.Errorf("vdms: committing migration manifest: %w", err))
		}
	}

	oldShards := c.shards
	c.shards = newShards
	c.gen.Store(newGen)
	c.delta = nil
	c.migrating.Store(false)
	if durable {
		c.diskGen = newMan.Generation
	}
	c.router.Unlock()

	// Retire the old shards crash-style: their directories are stale (the
	// manifest no longer names them), so no final checkpoint is owed.
	crashSet(oldShards)
	if err := c.step("committed"); err != nil {
		return newGen.seq, err
	}
	if err := c.step("cleanup"); err != nil {
		return newGen.seq, err
	}
	if durable {
		_ = persist.RemoveStaleGenerations(c.dataDir, newMan)
	}
	return newGen.seq, nil
}
