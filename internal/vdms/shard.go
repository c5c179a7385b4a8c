package vdms

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// shard is the engine: a growing arena, sealed segments (growing → sealed,
// index pending → sealed, indexed → compacted), a tombstone set, a
// compactor, and (when durable) its own snapshots beside the records it
// appends to the collection's one log. Segments are
// built by buildSegment and the shard is probed by searchMultiLocked,
// whoever owns it: the Collection router owns N, routes writes to them by
// id hash and fans reads out across all of them (see live.go); the tuner's
// Instance models one that is never written after Open (see engine.go).
// Nothing a shard does ever takes another shard's lock, which is the whole
// point: an insert, index build, or compaction pass on one shard proceeds
// while every other shard keeps serving.
type shard struct {
	// gen is the shard's view of the collection's immutable config
	// generation (see reconfig.go). Operations load it once at the top and
	// use that snapshot throughout, so a concurrent hot swap switches
	// between operations, never inside one. Cold knobs (index shape,
	// segment sizing, shard count) never change on a live shard — they
	// change by building replacement shards and cutting over.
	gen    atomic.Pointer[configGen]
	metric linalg.Metric
	dim    int
	// sealRows is the rows-per-segment derived from segment_maxSize ×
	// sealProportion at this shard's slice of the declared corpus size.
	sealRows int
	// slot is the shard's index in its set (shardFor's, and the one its
	// seal and compaction records name).
	slot int

	mu sync.RWMutex
	// nextID is this shard's id watermark: one past the highest id it has
	// ever applied. Ids are assigned by the router's collection-wide
	// counter, so consecutive batches routed here need not be contiguous —
	// the watermark only bounds Delete's range check and seeds the
	// router's counter after recovery.
	nextID int64
	// rows counts live (inserted and not deleted) rows.
	rows int64
	// growing is the current unsealed segment's vector arena (nil until
	// the first insert after a seal); growingIDs are its row ids.
	growing    *linalg.Matrix
	growingIDs []int64
	// sealed holds every sealed segment from the moment it seals, kept
	// sorted by seq so iteration order (and therefore planning and
	// merging) is deterministic no matter when each background build
	// happened to land. A segment whose build is still in flight has a nil
	// idx and is scanned exactly until the index lands.
	sealed  []*sealedSegment
	sealSeq int64
	// tombstones holds deleted ids that are still physically present in
	// sealed data; every search's collectors exclude them where they are
	// offered (see searchMultiLocked), and they are garbage-collected
	// when compaction drops the rows. Deleted growing rows are removed
	// physically at once and never linger here, so len(tombstones) —
	// what HNSW's beam and SCANN's stage 1 widen by — is bounded by the
	// dead rows awaiting compaction, not by the all-time delete count.
	tombstones map[int64]struct{}
	closed     bool

	// Compactor state; see compact.go. compacting guards the single
	// in-flight pass, which busy counts.
	compacting        bool
	compactionPasses  int64
	compactedSegments int64
	reclaimedRows     int64

	// Durability state; nil/zero for memory-only collections (see
	// persist.go in this package). wal is the set's shared log, which this
	// shard appends to under mu; dataDir holds its snapshots.
	wal     *genLog
	dataDir string
	// ckptMu serializes checkpoints (compactor passes, the server's
	// "persist" op, Close); ckptLSN is the newest durable snapshot's LSN,
	// written under mu too, for Stats.
	ckptMu  sync.Mutex
	ckptLSN uint64
	// noAutoCkpt suppresses the compactor's checkpoint-after-pass; see
	// DisableAutoCheckpoint.
	noAutoCkpt bool

	// viewSegments marks a shard whose sealed segments are views of an
	// arena the caller owns (Open's dataset): dropping them frees nothing
	// and nothing reads sealed rows back, so landings keep the view and
	// skip the permutation.
	viewSegments bool

	// busy counts the background work in flight — one per seal's index
	// build, one per running compaction pass — and idle is broadcast when
	// it reaches zero; bgErr is the first background failure (failLocked).
	// All three live under mu, and quiesce is the one wait on them.
	busy  int
	idle  sync.Cond
	bgErr error
}

// sealedSegment is one sealed segment, holding its full-precision rows
// once. ids are ascending. While the build is in flight (idx is nil) store
// is the segment's own arena in id order, which searches scan exactly. The
// index lands under the shard lock, once (landSegmentLocked), and the
// segment then adopts what the index holds: when the index keeps every row
// at full precision (FLAT, HNSW, AUTOINDEX, IVF_FLAT, SCANN) store becomes
// the index's arena and the segment's own copy is dropped; pos[i] is the
// arena row of segment row i, nil when the two orders agree (FLAT and the
// graph indexes adopted the segment's arena itself). IVF_SQ8 and IVF_PQ
// keep only codes, so their segments keep their own arena beside the
// index: compaction, snapshots and migration read rows (row), never store
// directly.
type sealedSegment struct {
	seq   int64
	store *linalg.Matrix
	pos   []int32
	ids   []int64
	idx   index.Index
	// dead counts this segment's rows that are tombstoned.
	dead int
	// noCompact excludes a segment whose compaction rebuild failed from
	// further planning, so a deterministic build error cannot spin the
	// compactor forever; the segment stays searchable and its tombstones
	// keep filtering.
	noCompact bool
}

// row returns the vector of segment row i (id ids[i]). Sealed rows are
// immutable and may be kept by reference.
func (seg *sealedSegment) row(i int) []float32 {
	if seg.pos != nil {
		return seg.store.Row(int(seg.pos[i]))
	}
	return seg.store.Row(i)
}

// landing is a finished build, ready to publish on its segment: the index
// and the arena (plus row permutation) the segment reads its rows from
// once it lands. buildSegment prepares it off the shard lock.
type landing struct {
	idx   index.Index
	store *linalg.Matrix
	pos   []int32
}

// readBack prepares seg's landing on idx. When idx holds every row at full
// precision in an arena other than seg's own (IVF_FLAT and SCANN group
// theirs cell-major), pos maps each segment row to its arena row by binary
// search of the index's ids in seg.ids — O(n log n), once per build.
// Otherwise, and on a shard of views, the segment keeps its arena, in its
// own order.
func (s *shard) readBack(seg *sealedSegment, idx index.Index) landing {
	arena, ids := idx.RawRows()
	if arena == nil || arena == seg.store || s.viewSegments {
		return landing{idx: idx, store: seg.store}
	}
	pos := make([]int32, len(ids))
	for g, id := range ids {
		i, _ := slices.BinarySearch(seg.ids, id)
		pos[i] = int32(g)
	}
	return landing{idx: idx, store: arena, pos: pos}
}

// land publishes a finished build on seg: the one adopt step, taken by
// landSegmentLocked and by compaction's replacement segments before they
// are shared. Callers hold s.mu or own seg.
func (seg *sealedSegment) land(l landing) {
	seg.idx, seg.store, seg.pos = l.idx, l.store, l.pos
}

// newShard creates an empty shard sealing at sealRows rows per segment,
// reading its knobs from the given config generation.
func newShard(g *configGen, metric linalg.Metric, dim, sealRows int) *shard {
	s := &shard{metric: metric, dim: dim, sealRows: sealRows}
	s.idle.L = &s.mu
	s.gen.Store(g)
	return s
}

// config returns the shard's current configuration. The pointed-to Config
// is immutable (generations are published whole, never edited), so the
// pointer may be held for the duration of one operation.
func (s *shard) config() *Config {
	return &s.gen.Load().cfg
}

// insert applies one routed sub-batch: vecs[i] is stored under the
// pre-assigned ids[i]. Dimensions were validated by the router. Growing
// data is searchable immediately; reaching the seal threshold seals the
// growing segment and hands it to a background index build. On a durable
// shard the rows are WAL-logged, and the log head returned for the caller
// to commit. Ids within a sub-batch ascend, but across batches they
// arrive in lock-acquisition order, which concurrent routed inserts may
// interleave.
func (s *shard) insert(ids []int64, vecs [][]float32) (uint64, error) {
	s.mu.Lock()
	// Insert records are split at seal boundaries: each record covers
	// exactly the rows that entered the growing segment before the next
	// RecFlush, so replaying "insert, insert, flush, insert" rebuilds the
	// same segment membership the live engine produced when a batch
	// straddled a seal. A contiguous run uses the dense RecInsert frame
	// (which is also what keeps a shard_count=1 log byte-identical to the
	// pre-sharding engine's); a hash-strided run spells its ids out.
	runStart := 0
	var logErr error
	logRun := func(end int) {
		if s.wal == nil || end <= runStart || logErr != nil {
			runStart = end
			return
		}
		run := ids[runStart:end]
		var err error
		if run[len(run)-1]-run[0] == int64(len(run)-1) {
			_, err = s.wal.AppendInsert(run[0], vecs[runStart:end], s.dim)
		} else {
			_, err = s.wal.AppendInsertIDs(run, vecs[runStart:end], s.dim)
		}
		if err != nil {
			logErr = err
		}
		runStart = end
	}
	for i, v := range vecs {
		s.applyInsertRowLocked(ids[i], v)
		if s.growing.Rows() >= s.sealRows {
			logRun(i + 1) // the sealing rows must precede the seal record
			s.sealLocked()
		}
	}
	logRun(len(vecs))
	var lsn uint64
	if s.wal != nil {
		lsn = s.wal.LastLSN() // covers the insert and any seal records
	}
	s.mu.Unlock()
	if logErr != nil {
		// The rows are applied in memory but the log is broken: surface
		// the durability failure instead of acknowledging.
		return 0, fmt.Errorf("vdms: logging insert: %w", logErr)
	}
	return lsn, nil
}

// applyInsertRowLocked lands one (id, vector) pair in the growing arena:
// the shared core of insert and WAL replay. Angular inputs are normalized
// in place on their arena row (no temporary copy). Callers hold s.mu.
func (s *shard) applyInsertRowLocked(id int64, v []float32) {
	s.appendGrowingLocked(id, v)
	if s.metric == linalg.Angular {
		linalg.Normalize(s.growing.Row(s.growing.Rows() - 1))
	}
}

// appendGrowingLocked appends one row to the growing arena exactly as
// given. Callers hold s.mu.
func (s *shard) appendGrowingLocked(id int64, v []float32) {
	if s.growing == nil {
		s.growing = linalg.NewMatrix(s.dim, s.sealRows)
	}
	s.growing.AppendRow(v)
	s.growingIDs = append(s.growingIDs, id)
	s.rows++
	if id >= s.nextID {
		s.nextID = id + 1
	}
}

// growingRowsLocked reports the growing segment's row count. Callers hold
// s.mu.
func (s *shard) growingRowsLocked() int {
	if s.growing == nil {
		return 0
	}
	return s.growing.Rows()
}

// sealLocked seals the growing segment and starts its background index
// build. Callers hold s.mu.
func (s *shard) sealLocked() {
	seq := s.sealSeq
	s.sealSeq++
	if s.wal != nil {
		// The seal is logged at its position in the operation order; a
		// failure cannot abort the seal (callers are mid-insert), so it is
		// surfaced the way background build failures are.
		if _, err := s.wal.AppendFlush(s.slot, seq); err != nil {
			s.failLocked(fmt.Errorf("vdms: logging seal: %w", err))
		}
	}
	seg := s.sealGrowingLocked(seq)
	s.busy++
	go func() {
		l, err := s.buildSegment(seg)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.landSegmentLocked(seg, l, err)
		if err == nil {
			s.maybeCompactLocked() // counts its pass before this build drops out
		}
		s.doneLocked()
	}()
}

// doneLocked retires one unit of background work, waking every quiesce
// when none is left. Callers hold s.mu.
func (s *shard) doneLocked() {
	s.busy--
	if s.busy == 0 {
		s.idle.Broadcast()
	}
}

// failLocked records err as the shard's background failure unless one is
// already recorded. Callers hold s.mu.
func (s *shard) failLocked(err error) {
	if s.bgErr == nil {
		s.bgErr = err
	}
}

// quiesce blocks until no index build or compaction pass is in flight on
// this shard, and returns its first background failure. It is the only
// wait on background work; work started while it waits is waited for too.
func (s *shard) quiesce() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.busy > 0 {
		s.idle.Wait()
	}
	return s.bgErr
}

// sealGrowingLocked is the seal step, shared by live seals and WAL replay:
// the growing rows become segment seq of s.sealed, index pending, and the
// growing tail starts over. Callers hold s.mu.
func (s *shard) sealGrowingLocked(seq int64) *sealedSegment {
	// Canonical row order: growing rows are normally already ascending by
	// id, but rows requeued by a failed build (or landed by interleaved
	// concurrent batches) may not be; sorting here keeps the
	// sealed-segment invariant (ids ascending) unconditionally.
	index.SortRowsByID(s.growing, s.growingIDs)
	seg := &sealedSegment{seq: seq, store: s.growing, ids: s.growingIDs}
	s.growing, s.growingIDs = nil, nil
	s.insertSealedLocked(seg)
	return seg
}

// newSegmentIndex constructs the (unbuilt) index for segment seq: the build
// seed is derived from the configuration seed and the sequence number, and
// the build worker pool is sized by the queryNode parallelism (builds are
// deterministic for any value, see package parallel).
func newSegmentIndex(cfg *Config, m linalg.Metric, dim int, seq int64) (index.Index, error) {
	bp := cfg.Build
	bp.Seed += seq * 7919
	bp.Workers = cfg.Parallelism
	return index.New(cfg.IndexType, m, dim, bp)
}

// buildSegment builds the index over one segment's rows — the only place
// in the package an index is constructed or built. Bulk load (Open),
// sealing, compaction, migration and crash recovery all come through here
// and through newSegmentIndex's seed derivation, which is what makes a
// recovered or migrated segment bit-identical to the one the live engine
// built, and the tuner's segments the served ones. It takes no lock and
// leaves seg alone: it prepares the landing (readBack), and
// landSegmentLocked publishes it under the lock.
func (s *shard) buildSegment(seg *sealedSegment) (landing, error) {
	metric := s.metric
	if metric == linalg.Angular {
		metric = linalg.L2 // inputs were normalized on insert
	}
	idx, err := newSegmentIndex(s.config(), metric, s.dim, seg.seq)
	if err != nil {
		return landing{}, err
	}
	if err := idx.Build(seg.store, seg.ids); err != nil {
		return landing{}, fmt.Errorf("vdms: building segment %d: %w", seg.seq, err)
	}
	return s.readBack(seg, idx), nil
}

// buildSegments builds every segment of segs through buildSegment, up to
// workers at a time (0: one per CPU), and returns what each returned, by
// position. The index builds are deterministic for any pool size, the inner
// pools stay as newSegmentIndex sizes them, and the caller lands the
// results in its own order, so the pool size shows in nothing but the wall
// clock.
func (s *shard) buildSegments(workers int, segs []*sealedSegment) ([]landing, []error) {
	lands := make([]landing, len(segs))
	errs := make([]error, len(segs))
	parallel.Parallel(workers, len(segs), func(i int) {
		lands[i], errs[i] = s.buildSegment(segs[i])
	})
	return lands, errs
}

// landSegmentLocked takes what buildSegment returned for seg, an
// index-pending entry of s.sealed, and is the only way a segment's index
// lands (Open, seals, WAL replay and snapshot restore all come through
// it): a built index is published on it, and the segment adopts the
// index's arena (land). After a failed build the error is recorded, the
// segment leaves the list and its rows go back into the growing tail so
// they stay searchable. Rows tombstoned while the build was in flight are
// dropped on that path (growing data is mutable), and their tombstones are
// no longer needed. Callers hold s.mu.
func (s *shard) landSegmentLocked(seg *sealedSegment, l landing, err error) {
	if err == nil {
		seg.land(l)
		return
	}
	s.failLocked(err)
	s.removeSealedLocked([]*sealedSegment{seg})
	for i, id := range seg.ids {
		if _, dead := s.tombstones[id]; dead {
			delete(s.tombstones, id)
			continue
		}
		if s.growing == nil {
			s.growing = linalg.NewMatrix(s.dim, seg.store.Rows())
		}
		s.growing.AppendRow(seg.row(i))
		s.growingIDs = append(s.growingIDs, id)
	}
}

// insertSealedLocked places seg into s.sealed keeping seq order, counting
// the rows already tombstoned (a recovered segment's, or a compaction
// replacement's whose rows were deleted while it was being built).
func (s *shard) insertSealedLocked(seg *sealedSegment) {
	for _, id := range seg.ids {
		if _, dead := s.tombstones[id]; dead {
			seg.dead++
		}
	}
	i := sort.Search(len(s.sealed), func(j int) bool { return s.sealed[j].seq > seg.seq })
	s.sealed = append(s.sealed, nil)
	copy(s.sealed[i+1:], s.sealed[i:])
	s.sealed[i] = seg
}

// containsSorted reports whether the ascending id slice contains id.
func containsSorted(ids []int64, id int64) bool {
	n := len(ids)
	if n == 0 || id < ids[0] || id > ids[n-1] {
		return false
	}
	i := sort.Search(n, func(j int) bool { return ids[j] >= id })
	return i < n && ids[i] == id
}

// locateLocked returns the sealed segment (indexed or index-pending)
// holding id, or nil. Sealed segments keep their ids ascending (the seal
// step sorts), so each probe is a binary search. Growing data is NOT
// consulted — its ids can be unsorted after a failed-build requeue; callers
// that need growing membership build a set (see delete.go). Callers hold
// s.mu.
func (s *shard) locateLocked(id int64) *sealedSegment {
	for _, seg := range s.sealed {
		if containsSorted(seg.ids, id) {
			return seg
		}
	}
	return nil
}

// forEachLiveRowLocked visits the shard's live rows — sealed segments in
// seq order, then the growing tail, tombstoned rows skipped — until visit
// returns false. Sealed rows are immutable and may be kept by reference;
// growing marks a row of the mutable tail, which must be copied to be
// kept. Callers hold s.mu (read side suffices).
func (s *shard) forEachLiveRowLocked(visit func(id int64, row []float32, growing bool) bool) {
	walk := func(row func(int) []float32, ids []int64, growing bool) bool {
		for i, id := range ids {
			if _, dead := s.tombstones[id]; dead {
				continue
			}
			if !visit(id, row(i), growing) {
				return false
			}
		}
		return true
	}
	for _, seg := range s.sealed {
		if !walk(seg.row, seg.ids, false) {
			return
		}
	}
	if s.growingRowsLocked() > 0 {
		walk(s.growing.Row, s.growingIDs, true)
	}
}

// searchMultiLocked is the engine's one probe: it answers a tile of
// already-normalized queries against the current segment states — sealed
// segments (through their index, or by exact scan while it is pending) and
// the growing tail. Each segment is visited once and scored against the whole
// tile with the multi-query blocked kernels (SearchMultiInto /
// ScanStoreMultiInto), so sealed arenas and scan tails stream from memory
// once per tile, not once per query, and offers its candidates straight
// into the per-query shard-level collectors in fixed segment order —
// sealed by seq, then growing — so no per-segment list is
// materialized and the merge is the collector itself. Ids are disjoint
// across segments (an id lives in exactly one), so the collected set equals
// a deduplicating merge of per-segment lists. Deleted rows still present in
// sealed data are excluded where they are offered: every collector carries
// the shard's tombstone set (linalg.TopK.Exclude), so each is k wide and
// nothing is filtered afterwards. Per query the offered candidate sequence
// — segment order, row order, excluded ids — does not depend on the tile,
// so results are bit-identical for any tile width. The returned row slices
// alias ps.moutBuf: consume them before the worker's next probe. Callers
// hold s.mu (read side suffices): the method only reads shard state (the
// collectors read the tombstone set, and let go of it before returning),
// so any number of goroutines holding the same read lock may call it
// concurrently — that is how SearchBatch fans out.
func (s *shard) searchMultiLocked(qs [][]float32, m linalg.Metric, k int, st *index.Stats, ps *probeScratch) [][]linalg.Neighbor {
	qn := len(qs)
	search := s.config().Search // one generation for the whole probe
	ps.ensureMulti(qn, k)
	for qi := 0; qi < qn; qi++ {
		ps.mtopPtr[qi] = ps.mtops[qi].Reset(k).Exclude(s.tombstones)
	}
	for _, seg := range s.sealed {
		if seg.idx == nil {
			index.ScanStoreMultiInto(m, qs, seg.store, seg.ids, ps.mtopPtr, st)
			continue
		}
		seg.idx.SearchMultiInto(qs, k, search, st, ps.mtopPtr)
	}
	if s.growingRowsLocked() > 0 {
		index.ScanStoreMultiInto(m, qs, s.growing, s.growingIDs, ps.mtopPtr, st)
	}
	for qi := 0; qi < qn; qi++ {
		// Each query's row gets a capacity-capped region of the flat
		// buffer (Len <= k by construction).
		off := qi * k
		ps.mouts[qi] = ps.mtops[qi].Exclude(nil).AppendResults(ps.moutBuf[off : off : off+k])
	}
	return ps.mouts
}

// statsLocked snapshots this shard's layout and footprint. Callers hold
// s.mu (read side suffices).
func (s *shard) statsLocked() ShardStats {
	st := ShardStats{
		Rows:              s.rows,
		GrowingRows:       s.growingRowsLocked(),
		Tombstones:        len(s.tombstones),
		CompactionPasses:  s.compactionPasses,
		CompactedSegments: s.compactedSegments,
		ReclaimedRows:     s.reclaimedRows,
	}
	if s.wal != nil {
		st.LastCheckpointLSN = s.ckptLSN
	}
	bytesPerRow := int64(s.dim) * 4
	for _, seg := range s.sealed {
		if seg.idx == nil {
			st.Sealing++
			st.MemoryBytes += seg.store.Bytes()
			continue
		}
		st.Sealed++
		// A landed segment holds its rows once: inside the index when it
		// keeps them at full precision (read back through pos, 4 B a row,
		// when the orders differ), beside it when it keeps only codes
		// (IVF_SQ8, IVF_PQ), where the segment's own arena — any store
		// that is not the index's — is resident too.
		st.MemoryBytes += seg.idx.MemoryBytes() + int64(len(seg.pos))*4
		if arena, _ := seg.idx.RawRows(); arena != seg.store {
			st.MemoryBytes += seg.store.Bytes()
		}
	}
	st.MemoryBytes += int64(s.growingRowsLocked()) * bytesPerRow * 2
	return st
}

// close shuts this shard down: crash, then (when not already closed) take
// a final checkpoint — WAL sync, full snapshot, log truncation — so a
// graceful shutdown is lossless under every fsync policy, growing tail
// included. The log itself is the collection's to close.
func (s *shard) close() error {
	already, bgErr := s.crash()
	var persistErr error
	if !already {
		persistErr = s.checkpoint()
	}
	if bgErr != nil {
		return bgErr
	}
	return persistErr
}

// crash abandons the shard the way a process crash would: background work
// is stopped, and no flush or snapshot happens (crashSet abandons the
// log). It reports whether the shard was already closed, and its first
// background failure. The closed flag is set under the lock before the
// wait, so no build that lands while crash waits can start a compaction
// pass it would miss. (Writes cannot race it: the router's closed flag
// turns them away.)
func (s *shard) crash() (already bool, err error) {
	s.mu.Lock()
	already, s.closed = s.closed, true
	s.mu.Unlock()
	return already, s.quiesce()
}
