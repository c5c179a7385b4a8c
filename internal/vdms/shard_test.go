package vdms

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
)

// Sharded-collection tests: routing determinism, scatter-gather
// bit-identity, per-shard durability layout, recovery, aggregation, and
// concurrent churn across shards.

// flatConfig returns a configuration whose segments search exactly (FLAT
// scans), so results depend only on the live id→vector set — the property
// that makes shard_count=N bit-identical to shard_count=1 on the same
// workload. Small segments force plenty of lifecycle churn.
func flatConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.IndexType = index.Flat
	cfg.Parallelism = 2
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.8
	cfg.ShardCount = shards
	return cfg
}

// runChurn drives a fixed insert/delete workload into coll and flushes.
func runChurn(t *testing.T, coll *Collection, vecs [][]float32) []int64 {
	t.Helper()
	var ids []int64
	for off := 0; off < len(vecs); off += 70 {
		end := off + 70
		if end > len(vecs) {
			end = len(vecs)
		}
		got, err := coll.Insert(vecs[off:end])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, got...)
		if off > 0 && off%140 == 0 {
			if _, err := coll.Delete(ids[off-50 : off-10]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// churnDeleted reports the ids runChurn deleted, given the ids it returned.
func churnDeleted(ids []int64) map[int64]bool {
	dead := map[int64]bool{}
	for off := 140; off < len(ids); off += 140 {
		for _, id := range ids[off-50 : off-10] {
			dead[id] = true
		}
	}
	return dead
}

// TestShardedBitIdenticalToSingleShard is the scatter-gather acceptance
// gate: on exact (FLAT) segments, the same workload answers SearchBatch
// bit-identically at shard_count 1, 2, 4, and 8 — the fixed-order merge
// of per-shard top-k lists reconstructs the global top-k exactly.
func TestShardedBitIdenticalToSingleShard(t *testing.T) {
	const dim, n, k = 8, 700, 10
	vecs := randVecs(n, dim, 41)
	qs := randVecs(24, dim, 42)

	run := func(shards int) ([][]linalg.Neighbor, CollectionStats) {
		coll, err := NewCollection(flatConfig(shards), linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		defer coll.Close()
		runChurn(t, coll, vecs)
		res, err := coll.SearchBatch(qs, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, coll.Stats()
	}

	baseRes, baseStats := run(1)
	for _, shards := range []int{2, 4, 8} {
		res, st := run(shards)
		if !reflect.DeepEqual(res, baseRes) {
			for qi := range res {
				if !reflect.DeepEqual(res[qi], baseRes[qi]) {
					t.Fatalf("shards=%d query %d: %v, shards=1: %v", shards, qi, res[qi], baseRes[qi])
				}
			}
			t.Fatalf("shards=%d results differ from shards=1", shards)
		}
		// Rows is a logical count and must agree exactly; tombstone and
		// segment counts are physical-layout properties (a delete landing
		// on a still-growing row is pruned without a tombstone, and seal
		// timing depends on the per-shard threshold), so they may differ
		// across shard counts.
		if st.Rows != baseStats.Rows {
			t.Fatalf("shards=%d Rows=%d, shards=1 has %d", shards, st.Rows, baseStats.Rows)
		}
		if len(st.Shards) != shards {
			t.Fatalf("breakdown has %d shards, want %d", len(st.Shards), shards)
		}
	}
}

// TestShardedSearchMatchesSearchBatch: the single-query and batched paths
// share the scatter-gather core, so they must agree result-for-result.
func TestShardedSearchMatchesSearchBatch(t *testing.T) {
	const dim, n, k = 8, 400, 7
	coll, err := NewCollection(flatConfig(4), linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	runChurn(t, coll, randVecs(n, dim, 43))
	qs := randVecs(12, dim, 44)
	batch, err := coll.SearchBatch(qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		single, err := coll.Search(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(single, batch[qi]) {
			t.Fatalf("query %d: Search %v, SearchBatch %v", qi, single, batch[qi])
		}
	}
}

// TestShardedDeterministicAcrossWorkers: with approximate (HNSW) segments
// the per-shard results are layout-dependent but must still be
// bit-identical between workers=1 and workers=N — the routing is a pure
// function of ids and every per-shard phase is deterministic.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	const dim, n, k = 8, 600, 5
	vecs := randVecs(n, dim, 45)
	qs := randVecs(16, dim, 46)
	run := func(workers int) [][]linalg.Neighbor {
		cfg := flatConfig(4)
		cfg.IndexType = index.HNSW
		cfg.Build.HNSWM = 8
		cfg.Build.EfConstruction = 48
		cfg.Search.Ef = 48
		cfg.Parallelism = workers
		coll, err := NewCollection(cfg, linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		defer coll.Close()
		runChurn(t, coll, vecs)
		res, err := coll.SearchBatch(qs, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("sharded results differ between workers=1 and workers=8")
	}
}

// TestShardedRecoveryBitIdentical is the per-shard crash-recovery gate: a
// durable sharded collection crashed after Flush recovers (all shard WALs
// replayed) to answer bit-identically to both its pre-crash self and a
// shards=1 in-memory replay of the same workload.
func TestShardedRecoveryBitIdentical(t *testing.T) {
	const dim, n, k = 8, 500, 8
	vecs := randVecs(n, dim, 47)
	qs := randVecs(20, dim, 48)

	cfg := flatConfig(4)
	cfg.WALFsyncPolicy = 3 // always
	dir := t.TempDir()
	live, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	runChurn(t, live, vecs)
	preRes, err := live.SearchBatch(qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	preStats := live.Stats()
	live.Crash()

	rec, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	postRes, err := rec.SearchBatch(qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preRes, postRes) {
		t.Fatal("sharded SearchBatch differs after per-shard recovery")
	}
	postStats := rec.Stats()
	if postStats.Rows != preStats.Rows || postStats.Tombstones != preStats.Tombstones {
		t.Fatalf("recovered Rows=%d Tombstones=%d, pre-crash %d/%d",
			postStats.Rows, postStats.Tombstones, preStats.Rows, preStats.Tombstones)
	}

	ref, err := NewCollection(flatConfig(1), linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	runChurn(t, ref, vecs)
	refRes, err := ref.SearchBatch(qs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(postRes, refRes) {
		t.Fatal("recovered sharded results differ from the shards=1 reference")
	}
}

// TestShardedDurableLayout pins the on-disk contract: a manifest, one log
// directory per generation and one snapshot subdirectory per shard,
// which holds no WAL file, a migration moving all of them to the next
// generation's directory; reopening with a different shard count serves
// the recorded one (the id routing the directory holds), and a
// pre-sharding directory layout is refused.
func TestShardedDurableLayout(t *testing.T) {
	const dim, n = 4, 200
	cfg := flatConfig(3)
	dir := t.TempDir()
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(randVecs(n, dim, 49)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Version != persist.ManifestVersion || man.Shards != 3 || man.Dim != dim || man.Metric != linalg.L2 {
		t.Fatalf("manifest = %+v", man)
	}
	checkLayout := func(man *persist.Manifest) {
		t.Helper()
		if wals, err := persist.WALFileNames(man.LogDir(dir)); err != nil || len(wals) == 0 {
			t.Fatalf("generation %d: log directory holds %d WAL files (%v)", man.Generation, len(wals), err)
		}
		for i := 0; i < man.Shards; i++ {
			if wals, err := persist.WALFileNames(man.ShardDir(dir, i)); err != nil || len(wals) != 0 {
				t.Fatalf("generation %d: shard %d directory holds %d WAL files (%v)", man.Generation, i, len(wals), err)
			}
		}
	}
	checkLayout(man)

	other := cfg
	other.ShardCount = 4
	for _, open := range []Config{other, cfg} {
		r, err := OpenDurable(dir, open, linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Rows != n || st.ShardCount != 3 {
			t.Fatalf("opened at %d shards: %d rows over %d shards, want %d over the recorded 3", open.ShardCount, st.Rows, st.ShardCount, n)
		}
		r.Close()
	}

	// A migration writes the next generation's log and snapshots, and the
	// old generation's go.
	r, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	two := cfg
	two.ShardCount = 2
	if _, err := r.Reconfigure(two); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	gen1, err := persist.LoadManifest(dir)
	if err != nil || gen1.Generation != 1 || gen1.Shards != 2 {
		t.Fatalf("migrated manifest = %+v, %v", gen1, err)
	}
	checkLayout(gen1)
	for _, stale := range []string{man.LogDir(dir), man.ShardDir(dir, 0)} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("%s survived the migration: %v", stale, err)
		}
	}

	// A pre-sharding directory (top-level WAL files, no manifest) must be
	// refused, not silently shadowed by a fresh empty collection.
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "wal-0000000000000001.wal"), []byte("old"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(legacy, cfg, linalg.L2, dim, n); err == nil {
		t.Fatal("legacy layout accepted")
	}
}

// TestShardedStatsAggregation: the collection-level stats are the sums of
// the per-shard breakdown, and the hash routing actually spreads rows.
func TestShardedStatsAggregation(t *testing.T) {
	const dim, n = 8, 500
	coll, err := NewCollection(flatConfig(4), linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	ids, err := coll.Insert(randVecs(n, dim, 50))
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Delete(ids[:40]); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("breakdown has %d entries, want 4", len(st.Shards))
	}
	var rows int64
	var tombs, sealed, growing int
	var mem int64
	for i, ss := range st.Shards {
		if ss.Rows == 0 {
			t.Fatalf("shard %d holds no rows: routing is not spreading (%+v)", i, st.Shards)
		}
		rows += ss.Rows
		tombs += ss.Tombstones
		sealed += ss.Sealed
		growing += ss.GrowingRows
		mem += ss.MemoryBytes
	}
	if rows != st.Rows || rows != n-40 {
		t.Fatalf("per-shard rows sum %d, aggregate %d, want %d", rows, st.Rows, n-40)
	}
	if tombs != st.Tombstones || sealed != st.Sealed || growing != st.GrowingRows || mem != st.MemoryBytes {
		t.Fatalf("aggregates are not the per-shard sums: %+v", st)
	}
}

// TestShardedConcurrentChurn is the cross-shard race gate: concurrent
// inserts, deletes, batched searches, explicit compactions, and a final
// racing Close across a 4-shard collection — memory-only, and durable
// under fsync always with explicit checkpoints racing too, where every
// shard appends to, rotates and trims the one log and a reopen must find
// every acknowledged row. Run under `make race`.
func TestShardedConcurrentChurn(t *testing.T) {
	for _, durable := range []bool{false, true} {
		testShardedConcurrentChurn(t, durable)
	}
}

func testShardedConcurrentChurn(t *testing.T, durable bool) {
	const dim = 8
	cfg := flatConfig(4)
	cfg.WALFsyncPolicy = 3 // always
	dir := t.TempDir()
	open := func() (*Collection, error) {
		if durable {
			return OpenDurable(dir, cfg, linalg.L2, dim, 2000)
		}
		return NewCollection(cfg, linalg.L2, dim, 2000)
	}
	coll, err := open()
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(1200, dim, 51)
	qs := randVecs(8, dim, 52)

	var wg sync.WaitGroup
	insErr := make([]error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := w * 300; off < (w+1)*300; off += 20 {
				ids, err := coll.Insert(vecs[off : off+20])
				if err != nil {
					insErr[w] = err
					return
				}
				if off%60 == 0 {
					if _, err := coll.Delete(ids[:5]); err != nil {
						insErr[w] = err
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := coll.SearchBatch(qs, 5, nil); err != nil {
					return // collection may already be closed below
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := coll.Compact(); err != nil {
				return
			}
			if err := coll.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for w, err := range insErr {
		if err != nil {
			t.Fatalf("inserter %d: %v", w, err)
		}
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	if st.Rows != 1200-4*5*5 {
		t.Fatalf("rows = %d after churn, want %d", st.Rows, 1200-4*5*5)
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close operations fail cleanly on every path.
	if _, err := coll.Insert(vecs[:1]); err == nil {
		t.Fatal("insert after close succeeded")
	}
	if _, err := coll.SearchBatch(qs, 1, nil); err == nil {
		t.Fatal("search after close succeeded")
	}
	if err := coll.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if durable {
		if coll, err = open(); err != nil {
			t.Fatal(err)
		}
		defer coll.Close()
		if got := coll.Stats().Rows; got != st.Rows {
			t.Fatalf("reopened with %d rows, closed with %d", got, st.Rows)
		}
	}
}

// TestShardedCloseDuringInserts races Close against in-flight inserts on
// every shard: whatever interleaving wins, Close must wait out background
// builds and later operations must fail cleanly (no panic, no hang).
func TestShardedCloseDuringInserts(t *testing.T) {
	const dim = 8
	coll, err := NewCollection(flatConfig(4), linalg.L2, dim, 400)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(800, dim, 53)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := w * 200; off < (w+1)*200; off += 10 {
				if _, err := coll.Insert(vecs[off : off+10]); err != nil {
					return // closed underneath us: expected
				}
			}
		}(w)
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := coll.Insert(vecs[:1]); err == nil {
		t.Fatal("insert after close succeeded")
	}
}

// TestShardedAngularNormalizes: inputs are normalized on their shard's
// arena row and queries once at the router, so angular search behaves
// identically across shard counts.
func TestShardedAngularNormalizes(t *testing.T) {
	coll, err := NewCollection(flatConfig(4), linalg.Angular, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	ids, err := coll.Insert([][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Same direction, different magnitude: must resolve to the same row.
	res, err := coll.Search([]float32{100, 0, 0, 0}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != ids[0] {
		t.Fatalf("angular sharded search returned %+v, want id %d", res, ids[0])
	}
}

// TestShardedRecoveryContinuesIDs: after recovery the collection-wide id
// counter resumes past every shard's watermark, so new inserts get fresh
// ids (no reuse, no collision) and land searchable.
func TestShardedRecoveryContinuesIDs(t *testing.T) {
	const dim, n = 4, 120
	cfg := flatConfig(4)
	dir := t.TempDir()
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, 400)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(n, dim, 55)
	ids, err := c.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, cfg, linalg.L2, dim, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	more := randVecs(10, dim, 56)
	newIDs, err := r.Insert(more)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range newIDs {
		if id != int64(n+i) {
			t.Fatalf("post-recovery id[%d] = %d, want %d (counter must resume past the watermark)", i, id, n+i)
		}
		hits, err := r.Search(more[i], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ID != id || hits[0].Dist != 0 {
			t.Fatalf("post-recovery insert %d not findable: %+v", id, hits)
		}
	}
	if got := r.Stats().Rows; got != n+10 {
		t.Fatalf("rows = %d, want %d", got, n+10)
	}
	// The originals are still exact hits too.
	for _, probe := range []int{0, 57, n - 1} {
		hits, err := r.Search(vecs[probe], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 || hits[0].ID != ids[probe] || hits[0].Dist != 0 {
			t.Fatalf("recovered row %d not exact: %+v", ids[probe], hits)
		}
	}
}

// TestShardedRoutingFixed pins that routing is a pure function of the id:
// the same id set lands on the same shards in every run (and therefore in
// every recovery), which is what WAL replay relies on: each shard applies
// the ids of the one log's records that the same routing sends it.
func TestShardedRoutingFixed(t *testing.T) {
	layout := func() string {
		coll, err := NewCollection(flatConfig(4), linalg.L2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		defer coll.Close()
		if _, err := coll.Insert(randVecs(200, 4, 54)); err != nil {
			t.Fatal(err)
		}
		st := coll.Stats()
		out := ""
		for _, ss := range st.Shards {
			out += fmt.Sprintf("%d/", ss.Rows)
		}
		return out
	}
	a, b := layout(), layout()
	if a != b {
		t.Fatalf("per-shard row layout differs across identical runs: %s vs %s", a, b)
	}
}

// TestShardedParallelFanoutMatrix is the parallel scatter-gather identity
// matrix: shards {1,4,8} × workers {1,8} × {fresh, post-recovery} all
// answer the same insert-only FLAT workload with byte-identical
// SearchBatch results AND identical merged index.Stats. The workload is
// insert-only on purpose — FLAT distance-comp counts are then a pure
// function of the live row count (every query scans every row exactly
// once, however the rows are partitioned), so the accounting must match
// across shard counts too, proving no probe is skipped or double-counted
// by the grid, the pipelined merge, or recovery.
func TestShardedParallelFanoutMatrix(t *testing.T) {
	const dim, n, k, batch = 8, 600, 9, 75
	vecs := randVecs(n, dim, 61)
	qs := randVecs(18, dim, 62)

	load := func(coll *Collection) {
		t.Helper()
		for off := 0; off < n; off += batch {
			if _, err := coll.Insert(vecs[off : off+batch]); err != nil {
				t.Fatal(err)
			}
		}
		if err := coll.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	query := func(coll *Collection) ([][]linalg.Neighbor, index.Stats) {
		t.Helper()
		var st index.Stats
		res, err := coll.SearchBatch(qs, k, &st)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}

	var baseRes [][]linalg.Neighbor
	var baseStats index.Stats
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 8} {
			cfg := flatConfig(shards)
			cfg.Parallelism = workers

			fresh, err := NewCollection(cfg, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			load(fresh)
			freshRes, freshStats := query(fresh)
			fresh.Close()

			dcfg := cfg
			dcfg.WALFsyncPolicy = 3 // always
			dir := t.TempDir()
			live, err := OpenDurable(dir, dcfg, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			load(live)
			live.Crash()
			rec, err := OpenDurable(dir, dcfg, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Flush(); err != nil {
				t.Fatal(err)
			}
			recRes, recStats := query(rec)
			rec.Close()

			if baseRes == nil {
				baseRes, baseStats = freshRes, freshStats
			}
			leg := fmt.Sprintf("shards=%d workers=%d", shards, workers)
			if !reflect.DeepEqual(freshRes, baseRes) {
				t.Fatalf("%s fresh: results differ from shards=1 workers=1", leg)
			}
			if freshStats != baseStats {
				t.Fatalf("%s fresh: merged stats %+v, want %+v", leg, freshStats, baseStats)
			}
			if !reflect.DeepEqual(recRes, baseRes) {
				t.Fatalf("%s recovered: results differ from shards=1 workers=1", leg)
			}
			if recStats != baseStats {
				t.Fatalf("%s recovered: merged stats %+v, want %+v", leg, recStats, baseStats)
			}
		}
	}
}

// TestShardedSearchGridRace is the race gate for the (query × shard)
// probe grid: batched searches run concurrently with cross-shard insert
// and delete churn and explicit compactions, and then a Close fires while
// searches are still in flight. Whatever interleaving wins, every
// operation either succeeds on a consistent snapshot or fails cleanly
// with the closed error — no panic, no hang, no torn read. Run under
// `make race`.
func TestShardedSearchGridRace(t *testing.T) {
	const dim = 8
	coll, err := NewCollection(flatConfig(4), linalg.L2, dim, 2000)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(1000, dim, 63)
	qs := randVecs(12, dim, 64)
	if _, err := coll.Insert(vecs[:200]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := 200 + w*400; off < 200+(w+1)*400; off += 16 {
				ids, err := coll.Insert(vecs[off : off+16])
				if err != nil {
					return // closed underneath us: expected
				}
				if off%64 == 0 {
					if _, err := coll.Delete(ids[:4]); err != nil {
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := coll.SearchBatch(qs, 6, nil); err != nil {
					return // closed: expected
				}
				if _, err := coll.Search(qs[0], 3, nil); err != nil {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := coll.Compact(); err != nil {
				return
			}
		}
	}()
	// Close races the searchers and writers above.
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if _, err := coll.SearchBatch(qs, 1, nil); err == nil {
		t.Fatal("search after close succeeded")
	}
}
