package vdms

import (
	"os"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// The persistence alloc gate: enabling durability must not touch the
// query path. WAL appends happen on the write path only, so Search on a
// durable collection must perform exactly the allocations of Search on a
// memory-only collection holding the same data. `make alloc-gate` runs
// this in strict mode (ALLOC_GATE_STRICT=1), where a skip is a failure,
// alongside the zero-allocation index gates in internal/index.
func TestAllocGatePersistentSearch(t *testing.T) {
	strict := os.Getenv("ALLOC_GATE_STRICT") != ""
	if raceEnabled {
		if strict {
			t.Fatal("alloc-gate tests cannot run under -race, but ALLOC_GATE_STRICT is set; run them without -race")
		}
		t.Skip("allocation counts are meaningless under -race")
	}
	const dim, n, k = 16, 600, 10
	cfg := DefaultConfig()
	cfg.IndexType = index.HNSW
	cfg.Parallelism = 1
	cfg.WALFsyncPolicy = 3
	cfg.SegmentMaxSize = 100
	cfg.SealProportion = 0.8
	vecs := randVecs(n, dim, 101)
	q := randVecs(1, dim, 102)[0]

	mem, err := NewCollection(cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	dur, err := OpenDurable(t.TempDir(), cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for _, c := range []*Collection{mem, dur} {
		if _, err := c.Insert(vecs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	measure := func(c *Collection) float64 {
		// Warm the scratch pools before counting.
		for i := 0; i < 10; i++ {
			if _, err := c.Search(q, k, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := c.Search(q, k, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	memAllocs := measure(mem)
	durAllocs := measure(dur)
	if durAllocs != memAllocs {
		t.Fatalf("durable Search allocates %.1f/op, memory-only %.1f/op: persistence leaked into the query path", durAllocs, memAllocs)
	}
}

// TestAllocGateTombstonedSearch is the deletion alloc gate: tombstones are
// excluded where candidates are offered, by collectors that only read the
// shard's set, so on a two-shard IVF_SQ8 collection Search and SearchBatch
// allocate exactly as much with 240 tombstones as with none — nothing is
// sized by the tombstone count.
func TestAllocGateTombstonedSearch(t *testing.T) {
	strict := os.Getenv("ALLOC_GATE_STRICT") != ""
	if raceEnabled {
		if strict {
			t.Fatal("alloc-gate tests cannot run under -race, but ALLOC_GATE_STRICT is set; run them without -race")
		}
		t.Skip("allocation counts are meaningless under -race")
	}
	const dim, n, k, queries, deletes = 16, 2400, 10, 32, 240
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFSQ8
	cfg.Build.NList = 16
	cfg.Search.NProbe = 4
	cfg.Parallelism = 1
	cfg.ShardCount = 2
	cfg.CompactionTriggerRatio = 0.95
	// Budgeted for 8n rows, each shard seals one segment at Flush, which
	// no merge can pick up alone.
	c, err := NewCollection(cfg, linalg.L2, dim, 8*n)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids, err := c.Insert(randVecs(n, dim, 106))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	q := randVecs(1, dim, 107)[0]
	qs := randVecs(queries, dim, 108)
	measure := func() (search, batch float64) {
		for i := 0; i < 10; i++ {
			if _, err := c.SearchBatch(qs, k, nil); err != nil {
				t.Fatal(err)
			}
		}
		search = testing.AllocsPerRun(200, func() {
			if _, err := c.Search(q, k, nil); err != nil {
				t.Fatal(err)
			}
		})
		batch = testing.AllocsPerRun(50, func() {
			if _, err := c.SearchBatch(qs, k, nil); err != nil {
				t.Fatal(err)
			}
		})
		return search, batch
	}
	cleanSearch, cleanBatch := measure()
	var dead []int64
	for i := 0; i < n; i += n / deletes {
		dead = append(dead, ids[i])
	}
	if _, err := c.Delete(dead); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Tombstones; got != deletes {
		t.Fatalf("%d tombstones, want %d: compaction was not held off", got, deletes)
	}
	deadSearch, deadBatch := measure()
	if deadSearch != cleanSearch || deadBatch != cleanBatch {
		t.Fatalf("with %d tombstones Search allocates %.1f/op and SearchBatch %.1f/op; with none %.1f/op and %.1f/op",
			deletes, deadSearch, deadBatch, cleanSearch, cleanBatch)
	}
}

// TestAllocGateShardedSearch is the sharding alloc gate: shard probes run
// over pooled probe scratches and feed a pooled result grid, and every
// segment offers its candidates straight into the shard-level collector
// (SearchInto), so a sharded Search costs the allocations of the
// single-shard Search plus a small fixed router constant — independent of
// the shard count. Anything proportional to shards (per-shard result
// lists, per-merge tables) or to the corpus blows the budget. Parallelism
// is pinned to 1 so worker-goroutine spawns don't pollute the counts; the
// fan-out machinery is the same code either way.
func TestAllocGateShardedSearch(t *testing.T) {
	strict := os.Getenv("ALLOC_GATE_STRICT") != ""
	if raceEnabled {
		if strict {
			t.Fatal("alloc-gate tests cannot run under -race, but ALLOC_GATE_STRICT is set; run them without -race")
		}
		t.Skip("allocation counts are meaningless under -race")
	}
	const dim, n, k, queries = 16, 800, 10, 32
	mk := func(shardCount int) *Collection {
		cfg := DefaultConfig()
		cfg.IndexType = index.HNSW
		cfg.Parallelism = 1
		cfg.ShardCount = shardCount
		c, err := NewCollection(cfg, linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(randVecs(n, dim, 103)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	q := randVecs(1, dim, 104)[0]
	qs := randVecs(queries, dim, 105)
	measureSearch := func(c *Collection) float64 {
		for i := 0; i < 10; i++ {
			if _, err := c.Search(q, k, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := c.Search(q, k, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	measureBatch := func(c *Collection) float64 {
		for i := 0; i < 10; i++ {
			if _, err := c.SearchBatch(qs, k, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.SearchBatch(qs, k, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	single := mk(1)
	defer single.Close()
	singleSearch := measureSearch(single)
	singleBatch := measureBatch(single)
	for _, shards := range []int{4, 8} {
		sharded := mk(shards)
		shardedSearch := measureSearch(sharded)
		shardedBatch := measureBatch(sharded)
		sharded.Close()
		// Budget: the single-shard cost plus a fixed router constant.
		// Notably NOT a function of the shard count.
		if budget := singleSearch + 4; shardedSearch > budget {
			t.Errorf("shards=%d Search allocates %.1f/op (single-shard %.1f/op), budget %.0f: sharding leaked allocations into the query path",
				shards, shardedSearch, singleSearch, budget)
		}
		if budget := singleBatch + 8; shardedBatch > budget {
			t.Errorf("shards=%d SearchBatch allocates %.1f/op (single-shard %.1f/op), budget %.0f: sharding leaked allocations into the batch path",
				shards, shardedBatch, singleBatch, budget)
		}
	}
}
