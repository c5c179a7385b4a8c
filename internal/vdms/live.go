package vdms

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// Collection is the live (streaming) face of the engine: a thin router
// over Config.ShardCount independent shards, the way a Milvus-style
// vector DBMS scales writes by sharding a collection across channels.
// Each shard (see shard.go) is the full single-lock engine — growing
// arena, sealed segments (index pending, then indexed), tombstones,
// compactor, and (when durable) its snapshots — so inserts, index builds,
// and compaction passes on different shards never contend on a lock. All
// of them append to one write-ahead log (see persist.go).
//
// Routing and determinism:
//
//   - ids are assigned by one collection-wide atomic counter and every
//     batch is split by partition, which routes each id to shardFor(id, S),
//     a fixed hash — the same id lands on the same shard in every run and
//     after every recovery;
//   - Search/SearchBatch scatter per-shard probes over the deterministic
//     worker pool (a query × shard grid for batches) and merge the
//     per-shard top-k lists in fixed shard order from a pooled result
//     grid, so results are bit-identical for any worker count;
//     ShardCount=1 is the same paths over a set of one, not a fork;
//   - each shard's parallel phases are themselves deterministic (see
//     package parallel), so a fixed op sequence yields fixed results.
//
// Collection complements Open/Evaluate (the tuner's steady-state model and
// simulated clock over one read-only shard of this same engine): it is the
// substrate for wall-clock measurements and for the online-tuning
// extension.
type Collection struct {
	// gen is the published config generation: the active Config plus its
	// sequence number. Reconfigure swaps it atomically (see reconfig.go);
	// readers load it once per operation. Each shard mirrors the pointer
	// so shard-level code never reaches back into the router.
	gen    atomic.Pointer[configGen]
	metric linalg.Metric
	dim    int
	// expectedRows is the corpus-size hint the collection was opened with;
	// migrations re-derive per-shard seal thresholds from it exactly the
	// way NewCollection would at the new configuration.
	expectedRows int

	// router guards the identity of the shard set. Every public operation
	// holds it for reading for its whole duration; a migration's capture
	// and cutover hold it for writing, so after a cutover returns no
	// operation can still be touching the retired shards, and every
	// operation that ran during a migration is recorded in its delta.
	router sync.RWMutex
	shards []*shard
	// delta, non-nil only while a migration is in flight, records the
	// writes that land on the old shards between capture and cutover so
	// the cutover can replay them onto the new shards. Written under
	// router.RLock (plus its own mutex); swapped under router.Lock.
	delta *migrationDelta

	// reconfigMu serializes Reconfigure calls (one hot swap or migration
	// at a time); diskGen is the durable layout's manifest generation,
	// only touched under reconfigMu.
	reconfigMu sync.Mutex
	diskGen    uint64
	// hook, when set (SetReconfigureHook), is called at each named
	// migration step; a non-nil error aborts the migration at that point
	// without cleanup. Crash-matrix tests use it to kill migrations
	// mid-flight.
	hook func(step string) error

	// nextID is the collection-wide id counter. It is advanced atomically
	// outside any shard lock, so concurrent inserts assign disjoint id
	// runs without serializing on each other.
	nextID atomic.Int64
	// closed gates the public API: Close and Crash set it before taking the
	// router write lock, entry points read it under the read lock, so an
	// operation that finds it false keeps open shards to its end.
	closed atomic.Bool
	// migrating reports an in-flight migration for Stats.
	migrating atomic.Bool
	// dataDir is the durable data directory ("" for memory-only).
	dataDir string
	// gatherPool recycles scatter-gather working sets (per-worker probe
	// scratches, the query×shard result grid); partPool the routed writes'
	// partitions. Both keep the steady-state hot paths allocation-free;
	// see scratch.go.
	gatherPool sync.Pool
	partPool   sync.Pool
}

// sealRowsFor derives the rows-per-segment seal threshold from the
// segment-size model at the given expected row count (one shard's slice
// of the corpus).
func sealRowsFor(cfg Config, expectedRows int) int {
	sealRows := int(cfg.SegmentMaxSize * cfg.SealProportion * float64(expectedRows) / 512)
	if sealRows < 48 {
		sealRows = 48
	}
	return sealRows
}

// NewCollection creates an empty live collection of cfg.ShardCount shards.
// expectedRows scales the segment-size model the same way Open does for
// bulk loads (each shard budgets for its 1/ShardCount slice); it must be
// positive.
func NewCollection(cfg Config, metric linalg.Metric, dim, expectedRows int) (*Collection, error) {
	return newCollection(&configGen{cfg: cfg}, metric, dim, expectedRows)
}

// newCollection is NewCollection serving config generation g, which
// OpenDurable reads back from a data directory.
func newCollection(g *configGen, metric linalg.Metric, dim, expectedRows int) (*Collection, error) {
	if err := g.cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, fmt.Errorf("vdms: dimension must be positive, got %d", dim)
	}
	if expectedRows <= 0 {
		return nil, fmt.Errorf("vdms: expectedRows must be positive, got %d", expectedRows)
	}
	c := &Collection{metric: metric, dim: dim, expectedRows: expectedRows}
	c.gen.Store(g)
	c.shards = newShardSet(g, metric, dim, expectedRows)
	return c, nil
}

// newShardSet creates the empty shard set of one config generation — a
// fresh collection's or a migration's target — each of its ShardCount
// shards budgeting its segments for a 1/ShardCount slice of expectedRows.
func newShardSet(g *configGen, metric linalg.Metric, dim, expectedRows int) []*shard {
	n := g.cfg.shardCount()
	sealRows := sealRowsFor(g.cfg, (expectedRows+n-1)/n)
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = newShard(g, metric, dim, sealRows)
		shards[i].slot = i
	}
	return shards
}

// Config returns the collection's active configuration (the newest
// generation Reconfigure published).
func (c *Collection) Config() Config {
	return c.gen.Load().cfg
}

// Metric returns the distance metric the collection was created with.
func (c *Collection) Metric() linalg.Metric { return c.metric }

// splitmix64 is the id-routing hash: a full-avalanche finalizer, so dense
// sequential ids spread evenly across shards while the mapping stays a
// pure function of the id (deterministic across runs and recoveries).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// shardFor routes an id to its owning shard in a set of n (an argument: a
// migration routes into a set that is not yet the collection's).
func shardFor(id int64, n int) int {
	if n == 1 {
		return 0
	}
	return int(splitmix64(uint64(id)) % uint64(n))
}

// firstError returns the first non-nil error of a per-shard dispatch, in
// shard-dispatch order (deterministic when several shards fail at once).
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Insert appends vectors and returns their assigned ids. Vectors are
// copied; the caller may reuse the slices. Growing data is searchable
// immediately. A batch containing a vector vectorFault rejects (wrong
// dimension, a NaN or ±Inf component, an L2/IP squared norm over
// maxSquaredNorm) is rejected whole, before any row is applied or logged.
// Ids are assigned from the collection-wide counter and the batch is
// partitioned across shards by id hash; each shard applies and WAL-logs
// its sub-batch under its own lock, so concurrent Insert calls proceed in
// parallel on different shards. Shards are visited in an order rotated by the batch's first id,
// which staggers concurrent callers across the shard array instead of
// convoying them all onto shard 0. On a durable collection the
// acknowledgement commits the log once, at the highest LSN the batch
// reached, under the configured fsync policy, so a returned id is exactly
// as crash-proof as that policy promises.
func (c *Collection) Insert(vecs [][]float32) ([]int64, error) {
	for i, v := range vecs {
		if f := vectorFault(c.metric, c.dim, v); f != "" {
			return nil, fmt.Errorf("vdms: vector %d %s", i, f)
		}
	}
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("vdms: collection closed")
	}
	n := len(vecs)
	base := c.nextID.Add(int64(n)) - int64(n)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = base + int64(i)
	}
	err := c.route(ids, vecs, int(uint64(base)%uint64(len(c.shards))), func(si int, ids []int64, vecs [][]float32) (uint64, error) {
		return c.shards[si].insert(ids, vecs)
	})
	if err != nil {
		return nil, err
	}
	if d := c.delta; d != nil { // an in-flight migration replays it at cutover
		d.addInserts(ids, vecs)
	}
	return ids, nil
}

// maxSquaredNorm bounds an L2 or IP vector's squared norm so that every
// distance between two such vectors is finite: ‖a−b‖² ≤ 2‖a‖²+2‖b‖² and
// |⟨a,b⟩| ≤ ‖a‖‖b‖ (DESIGN.md "Finite in, finite out").
const maxSquaredNorm = math.MaxFloat32 / 8

// vectorFault says why Insert, SearchBatch and recovery refuse v, or
// returns "": a wrong dimension, a NaN or ±Inf component (every distance
// to it is NaN, which orders unpredictably), or, under L2 and IP, a
// squared norm, summed in float64, over maxSquaredNorm (its distances
// could reach ±Inf).
func vectorFault(m linalg.Metric, dim int, v []float32) string {
	if len(v) != dim {
		return fmt.Sprintf("has dim %d, want %d", len(v), dim)
	}
	var sq float64 // no float32 square overflows it: only a NaN or ±Inf component makes it non-finite
	for _, x := range v {
		sq += float64(x) * float64(x)
	}
	if math.IsNaN(sq) || math.IsInf(sq, 0) {
		j := slices.IndexFunc(v, func(x float32) bool { return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) })
		return fmt.Sprintf("component %d is %v", j, v[j])
	}
	if sq > maxSquaredNorm && m != linalg.Angular {
		return fmt.Sprintf("has squared norm %g, above the %v bound %g", sq, m, float64(maxSquaredNorm))
	}
	return ""
}

// route is the one path of a routed write: the batch is split by owning
// shard (partition) and apply runs on every shard that received rows,
// visited from shard `start` round the set, returning the log head its
// records reach (0 when memory-only), even if an earlier one failed (rows
// applied in memory, the durability failure surfaced instead of an
// acknowledgement). The log then commits once, at the highest head, for
// the whole write. Callers hold the router read lock.
func (c *Collection) route(ids []int64, vecs [][]float32, start int, apply func(si int, ids []int64, vecs [][]float32) (uint64, error)) error {
	p := c.getPartition()
	defer c.putPartition(p)
	p.split(ids, vecs, len(c.shards))
	var lsn uint64
	var first error
	for o := range p.ids {
		si := (start + o) % len(p.ids)
		if len(p.ids[si]) == 0 {
			continue
		}
		l, err := apply(si, p.ids[si], p.vecs[si])
		lsn = max(lsn, l)
		if first == nil {
			first = err
		}
	}
	if first != nil || lsn == 0 {
		return first
	}
	if err := c.shards[0].wal.Commit(lsn); err != nil {
		return fmt.Errorf("vdms: committing write: %w", err)
	}
	return nil
}

// Flush seals every shard's growing segment (even if partial) and blocks
// until every pending index build and compaction pass completes. On a
// durable collection it also forces the log to disk regardless of fsync
// policy, so everything inserted before Flush survives a crash. It
// returns the first background error, if any.
func (c *Collection) Flush() error {
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return fmt.Errorf("vdms: collection closed")
	}
	for _, s := range c.shards {
		s.mu.Lock()
		if s.growingRowsLocked() > 0 {
			s.sealLocked()
		}
		s.mu.Unlock()
	}
	var syncErr error
	if l := c.shards[0].wal; l != nil {
		syncErr = l.Sync()
	}
	if err := quiesceAll(c.shards); err != nil {
		return err
	}
	return syncErr
}

// quiesceAll quiesces every shard of a set and returns the first
// background error in shard order.
func quiesceAll(shards []*shard) error {
	errs := make([]error, len(shards))
	for i, s := range shards {
		errs[i] = s.quiesce()
	}
	return firstError(errs)
}

// rlockAll acquires every shard's read lock in fixed shard order, so the
// caller observes one consistent snapshot of every shard's segment
// lifecycle. The matching runlockAll releases them.
func (c *Collection) rlockAll() {
	for _, s := range c.shards {
		s.mu.RLock()
	}
}

func (c *Collection) runlockAll() {
	for _, s := range c.shards {
		s.mu.RUnlock()
	}
}

// readWorkers sizes the scatter-gather fan-out: the configured queryNode
// parallelism, clamped to the machine (running more probe workers than
// GOMAXPROCS only adds scheduling overhead, never throughput). The pool
// further clamps to the number of grid cells. Results are identical for
// any value — determinism comes from fixed-order merging, not scheduling.
func (c *Collection) readWorkers() int {
	w := c.gen.Load().cfg.Parallelism
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	return w
}

// mergeShardRow merges one query's row of the result grid — its per-shard
// top-k cells — in fixed shard order into a fresh caller-visible slice.
// Ids are partitioned across shards, so the merge is a pure k-way
// selection (no dedup needed); fixed order makes boundary ties
// deterministic regardless of which worker probed which shard when.
func mergeShardRow(g *gatherScratch, mt *linalg.TopK, qi, q, s, k int) []linalg.Neighbor {
	top := mt.Reset(k)
	for si := 0; si < s; si++ {
		cell := si*q + qi
		base := cell * k
		for _, nb := range g.cells[base : base+int(g.cellLen[cell])] {
			top.Push(nb.ID, nb.Dist)
		}
	}
	return top.AppendResults(make([]linalg.Neighbor, 0, top.Len()))
}

// Search returns the k nearest neighbors of q across every shard and
// every segment state: SearchBatch over the one-query batch, whose
// 1-tile × S-shard grid fans the query across the shards. st may be nil.
func (c *Collection) Search(q []float32, k int, st *index.Stats) ([]linalg.Neighbor, error) {
	out, err := c.SearchBatch([][]float32{q}, k, st)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// queryTileSize picks the multi-query tile width: as many queries as fit
// in L1 (the 32 KiB linalg.MultiRowTile assumes) beside the row tile,
// clamped to [4, 64], so every query a probed cell has in the batch rides
// one kernel call and the quad kernels see as many probers per cell as the
// batch holds. It depends on the dimension alone, not on the worker
// count: a batch of up to 64 queries on one shard is one grid cell on one
// worker, and the grid fans out across shards and across 64-query tiles.
// Tile boundaries never affect results: each query's candidate sequence
// is tile-invariant, so any width yields bit-identical per-query output.
func (c *Collection) queryTileSize() int {
	return min(max((32<<10)/(4*c.dim), 4), 64)
}

// SearchBatch is the collection's one search entry: it answers queries[i]
// into result slot i from every segment state — sealed segments, indexed
// or (while a build is in flight) scanned exactly, and the growing tails. It
// scatters a (shard × query-tile) probe grid across a worker pool sized by
// the configured queryNode parallelism: a single query fans out across the
// shards, and a batch across the shards and its tiles of up to 64 queries
// (queryTileSize). Each cell probes one shard with a whole tile of queries
// through the multi-query blocked kernels: segment arenas stream from
// memory once per tile instead of once per query, and a probed cell's
// probers from the whole tile share each row load, turning the batch scan
// into a small GEMM. Cells are claimed in shard-major order
// (every tile probes shard 0, then every tile shard 1, …), which keeps one
// shard's smaller segment data cache-resident across the whole batch. The
// merge pipelines behind the probes: the worker that finishes a tile's
// last shard merges that tile's query rows immediately, in fixed shard
// order, so results are bit-identical for any worker count and any tile
// width. The whole batch executes under every shard's read lock (acquired
// in fixed order), so it observes a single consistent snapshot of every
// shard's segment lifecycle even while concurrent Insert/Delete/Flush
// calls are queued. Per-probe work is accumulated into private per-cell
// Stats and merged into st in cell order (exact, since the counts are
// integers). A query vectorFault rejects fails the whole batch before
// any probe runs.
func (c *Collection) SearchBatch(queries [][]float32, k int, st *index.Stats) ([][]linalg.Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("vdms: k must be >= 1, got %d", k)
	}
	for i, q := range queries {
		if f := vectorFault(c.metric, c.dim, q); f != "" {
			return nil, fmt.Errorf("vdms: query %d %s", i, f)
		}
	}
	m := c.metric
	qs := queries
	if m == linalg.Angular {
		qs = make([][]float32, len(queries))
		for i, q := range queries {
			qs[i] = linalg.Clone(q)
			linalg.Normalize(qs[i])
		}
		m = linalg.L2
	}
	c.router.RLock()
	defer c.router.RUnlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("vdms: collection closed")
	}
	c.rlockAll()
	defer c.runlockAll()
	out := make([][]linalg.Neighbor, len(qs))
	if len(qs) == 0 {
		return out, nil
	}
	// Every buffer below is sized by k, which arrives from the wire: work
	// with no more than the rows that exist (at least 1, so an empty
	// collection still answers with empty lists). A k beyond the row count
	// returns every row either way.
	var rows int64
	for _, sh := range c.shards {
		rows += sh.rows
	}
	if int64(k) > rows {
		k = int(max(rows, 1))
	}
	q, s := len(qs), len(c.shards)
	tile := c.queryTileSize()
	tiles := (q + tile - 1) / tile
	cells := s * tiles
	workers := parallel.WorkerCount(c.readWorkers(), cells)
	g := c.getGather(q, s, k, workers, tiles)
	parallel.WorkerParallel(workers, cells, func(w, cell int) {
		si, ti := cell/tiles, cell%tiles // shard-major: all tiles probe si in a run
		lo := ti * tile
		hi := lo + tile
		if hi > q {
			hi = q
		}
		ps := &g.probes[w]
		res := c.shards[si].searchMultiLocked(qs[lo:hi], m, k, &g.stats[cell], ps)
		if s == 1 {
			for i, r := range res {
				buf := make([]linalg.Neighbor, len(r))
				copy(buf, r)
				out[lo+i] = buf
			}
			return
		}
		for i, r := range res {
			gcell := si*q + lo + i
			base := gcell * k
			g.cellLen[gcell] = int32(copy(g.cells[base:base+k], r))
		}
		if g.pending[ti].Add(-1) != 0 {
			return
		}
		// Last probe in: this tile's query rows are complete, merge them
		// now. The atomic counter orders the merge after every
		// contributing cell write, and fixed shard order keeps the result
		// independent of which worker got here.
		for qi := lo; qi < hi; qi++ {
			out[qi] = mergeShardRow(g, &ps.top, qi, q, s, k)
		}
	})
	if st != nil {
		for i := range g.stats {
			st.Add(g.stats[i])
		}
	}
	c.putGather(g)
	return out, nil
}

// ShardStats is one shard's slice of a CollectionStats snapshot, and the
// aggregate a CollectionStats embeds.
type ShardStats struct {
	// Rows is the live row count (inserted minus deleted).
	Rows        int64
	Sealed      int
	Sealing     int
	GrowingRows int
	MemoryBytes int64
	// Tombstones is the number of deleted ids still physically present
	// in sealed data, which every search excludes where candidates are
	// offered. Compaction drives it back toward zero.
	Tombstones int
	// CompactionPasses counts completed compactor passes;
	// CompactedSegments the source segments rewritten or merged away;
	// ReclaimedRows the deleted rows physically dropped.
	CompactionPasses  int64
	CompactedSegments int64
	ReclaimedRows     int64
	// LastCheckpointLSN is the log sequence number the shard's newest
	// durable snapshot covers; its records beyond it live only in the
	// WAL. In the aggregate, the oldest shard's: where recovery starts
	// reading the log. Zero on memory-only collections or before the
	// first checkpoint.
	LastCheckpointLSN uint64
}

// add accumulates one shard's stats into an aggregate: sums (the
// aggregate's LastCheckpointLSN is a minimum, which Stats takes).
func (a *ShardStats) add(b ShardStats) {
	a.Rows += b.Rows
	a.Sealed += b.Sealed
	a.Sealing += b.Sealing
	a.GrowingRows += b.GrowingRows
	a.MemoryBytes += b.MemoryBytes
	a.Tombstones += b.Tombstones
	a.CompactionPasses += b.CompactionPasses
	a.CompactedSegments += b.CompactedSegments
	a.ReclaimedRows += b.ReclaimedRows
}

// CollectionStats is a point-in-time snapshot of a live collection: the
// embedded ShardStats aggregated over its shards, the log's position, and
// Shards the per-shard breakdown.
type CollectionStats struct {
	ShardStats
	// WALBytes is the write-ahead log's current byte footprint — what a
	// recovery would read back on top of the snapshots. Checkpoints drive
	// it back down. Zero on memory-only collections.
	WALBytes int64
	// WALLastLSN is the log head: the sequence number of the most
	// recently appended record. Zero on memory-only collections.
	WALLastLSN uint64
	// ConfigGeneration is the active config generation's sequence number:
	// zero at creation, +1 per successful Reconfigure (hot swap or
	// migration). Operators compare it against the generation a
	// reconfigure call reported to confirm the change landed.
	ConfigGeneration uint64
	// IndexType and ShardCount echo the active configuration's structural
	// knobs, so a stats reader can see what shape is serving without a
	// separate config op.
	IndexType  index.Type
	ShardCount int
	// MigrationInProgress reports an in-flight cold-knob migration
	// (Reconfigure building the new shape in the background).
	MigrationInProgress bool
	// Shards is the per-shard breakdown, in shard order. Its length is the
	// collection's shard count.
	Shards []ShardStats
}

// Stats reports the collection's current segment layout and footprint:
// per-shard snapshots taken under every shard's read lock (one consistent
// cut), plus their aggregate.
func (c *Collection) Stats() CollectionStats {
	c.router.RLock()
	defer c.router.RUnlock()
	c.rlockAll()
	defer c.runlockAll()
	g := c.gen.Load()
	out := CollectionStats{
		ConfigGeneration:    g.seq,
		IndexType:           g.cfg.IndexType,
		ShardCount:          len(c.shards),
		MigrationInProgress: c.migrating.Load(),
		Shards:              make([]ShardStats, len(c.shards)),
	}
	out.LastCheckpointLSN = math.MaxUint64
	for i, s := range c.shards {
		out.Shards[i] = s.statsLocked()
		out.add(out.Shards[i])
		out.LastCheckpointLSN = min(out.LastCheckpointLSN, out.Shards[i].LastCheckpointLSN)
	}
	if l := c.shards[0].wal; l != nil {
		out.WALBytes, out.WALLastLSN = l.Size(), l.LastLSN()
	}
	return out
}

// Close marks the collection unusable, then shuts every shard down:
// pending builds and compactions are waited out, and each durable shard
// takes a final checkpoint — WAL sync, full snapshot, log truncation — so
// a graceful shutdown is lossless under every fsync policy, growing tails
// included; then the log closes. Shards close in parallel, so shutdown
// wall time is the slowest shard's final checkpoint, not the sum. Close
// is idempotent: a second Close (or a Close after Crash) skips the
// checkpoints instead of failing against the already-closed log.
func (c *Collection) Close() error {
	already := c.closed.Swap(true)
	// The write lock serializes Close against a migration's cutover: after
	// it is held, either the cutover already swapped the shard set (and
	// these are the new shards to close) or it will observe closed and
	// abort, leaving the old shards for us.
	c.router.Lock()
	defer c.router.Unlock()
	errs := make([]error, len(c.shards)+1)
	parallel.Parallel(len(c.shards), len(c.shards), func(i int) {
		errs[i] = c.shards[i].close()
	})
	if l := c.shards[0].wal; l != nil && !already {
		errs[len(c.shards)] = l.Close()
	}
	return firstError(errs)
}

// SampleVectors returns up to n of the collection's live vectors (copies,
// in routing order), for callers that need a representative sample of the
// stored distribution — the online tuning daemon builds its evaluation
// window from it. n is bounded by the live rows before it sizes anything.
// Angular collections return the normalized rows the engine stores.
func (c *Collection) SampleVectors(n int) [][]float32 {
	c.router.RLock()
	defer c.router.RUnlock()
	c.rlockAll()
	defer c.runlockAll()
	var rows int64
	for _, s := range c.shards {
		rows += s.rows
	}
	if int64(n) > rows {
		n = int(rows)
	}
	if n <= 0 {
		return nil
	}
	out := make([][]float32, 0, n)
	for _, s := range c.shards {
		s.forEachLiveRowLocked(func(_ int64, row []float32, _ bool) bool {
			out = append(out, linalg.Clone(row))
			return len(out) < n
		})
		if len(out) == n {
			break
		}
	}
	return out
}
