package vdms

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/persist"
)

// durableConfig is a small, fast configuration for durability tests.
func durableConfig(t index.Type) Config {
	cfg := DefaultConfig()
	cfg.IndexType = t
	cfg.Parallelism = 2
	cfg.WALFsyncPolicy = 3 // always: every ack is on disk
	return cfg
}

// TestDurableRoundTrip inserts, deletes, flushes, crashes, recovers, and
// checks rows, stats, and exact per-id search hits.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.Flat)
	const dim, n = 8, 300
	vecs := randVecs(n, dim, 11)

	c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete(ids[:50]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pre := c.Stats()
	c.Crash()

	r, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	post := r.Stats()
	if post.Rows != pre.Rows || post.Rows != n-50 {
		t.Fatalf("recovered Rows = %d, want %d", post.Rows, pre.Rows)
	}
	if post.Tombstones != pre.Tombstones {
		t.Fatalf("recovered Tombstones = %d, want %d", post.Tombstones, pre.Tombstones)
	}
	// Every surviving vector is findable at distance zero; every deleted
	// one is gone.
	for i, id := range ids {
		hits, err := r.Search(vecs[i], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i < 50 {
			if len(hits) > 0 && hits[0].ID == id && hits[0].Dist == 0 {
				t.Fatalf("deleted id %d still findable", id)
			}
			continue
		}
		if len(hits) == 0 || hits[0].ID != id || hits[0].Dist != 0 {
			t.Fatalf("id %d not recovered exactly: %+v", id, hits)
		}
	}
}

// TestDurableCheckpointTruncatesWAL verifies Checkpoint bounds the log
// and that recovery works from snapshot + empty suffix.
func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.Flat)
	const dim = 4
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(randVecs(200, dim, 5)); err != nil {
		t.Fatal(err)
	}
	grew := c.Stats().WALBytes
	if grew == 0 {
		t.Fatal("WALBytes zero after 200 inserts")
	}
	// One generation of history is retained as a fallback, so the log
	// shrinks once the *second* checkpoint makes the first one "previous".
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LastCheckpointLSN == 0 {
		t.Fatal("LastCheckpointLSN still zero after Checkpoint")
	}
	if st.WALBytes >= grew {
		t.Fatalf("WALBytes %d not reduced by checkpoints (was %d)", st.WALBytes, grew)
	}
	c.Crash()

	r, err := OpenDurable(dir, cfg, linalg.L2, dim, 200)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Stats().Rows; got != 200 {
		t.Fatalf("recovered Rows = %d, want 200", got)
	}
}

// TestDurableGracefulCloseKeepsUnsyncedTail: under SyncNever nothing is
// fsynced per-op, but Close checkpoints, so a graceful shutdown loses
// nothing — including unsealed growing rows.
func TestDurableGracefulCloseKeepsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.Flat)
	cfg.WALFsyncPolicy = 1 // never
	const dim = 4
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, 1000)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(37, dim, 6) // far below any seal threshold
	ids, err := c.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenDurable(dir, cfg, linalg.L2, dim, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Rows != 37 || st.GrowingRows != 37 {
		t.Fatalf("recovered Rows=%d GrowingRows=%d, want 37/37", st.Rows, st.GrowingRows)
	}
	hits, err := r.Search(vecs[3], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].ID != ids[3] || hits[0].Dist != 0 {
		t.Fatalf("growing row not recovered: %+v", hits)
	}
}

// TestDurableCloseIdempotent: a second Close (the common defer + explicit
// pattern) must not fail against the already-closed WAL, and Close after
// Crash must not attempt a checkpoint.
func TestDurableCloseIdempotent(t *testing.T) {
	cfg := durableConfig(index.Flat)
	c, err := OpenDurable(t.TempDir(), cfg, linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(randVecs(5, 4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close failed: %v", err)
	}
	crashed, err := OpenDurable(t.TempDir(), cfg, linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	crashed.Crash()
	if err := crashed.Close(); err != nil {
		t.Fatalf("Close after Crash failed: %v", err)
	}
}

// TestFlushAndCheckpointRefuseClosed: after Close or Crash, memory-only or
// durable, Flush and Checkpoint refuse like every other mutating entry
// point and change nothing: in particular Flush seals no growing tail (and
// so starts no build) behind Close's back.
func TestFlushAndCheckpointRefuseClosed(t *testing.T) {
	const dim, n = 8, 300
	for _, durable := range []bool{false, true} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("durable=%v/crash=%v", durable, crash), func(t *testing.T) {
				cfg := durableConfig(index.Flat)
				c, err := NewCollection(cfg, linalg.L2, dim, n)
				if durable {
					c, err = OpenDurable(t.TempDir(), cfg, linalg.L2, dim, n)
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Insert(randVecs(20, dim, 3)); err != nil {
					t.Fatal(err)
				}
				if crash {
					c.Crash()
				} else if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				before := c.Stats()
				if before.GrowingRows != 20 || before.Sealed != 0 {
					t.Fatalf("set-up: want a 20-row growing tail and nothing sealed, have %+v", before)
				}
				for name, op := range map[string]func() error{"Flush": c.Flush, "Checkpoint": c.Checkpoint} {
					if err := op(); err == nil || err.Error() != "vdms: collection closed" {
						t.Fatalf("%s on a closed collection: %v", name, err)
					}
				}
				if after := c.Stats(); !reflect.DeepEqual(after, before) {
					t.Fatalf("Stats moved:\n before %+v\n after  %+v", before, after)
				}
			})
		}
	}
}

// TestDurableConfigMismatchRejected: recovery refuses a dimension or a
// metric the directory does not hold, and a configuration that differs
// from the recorded one (index type, build seed) opens at the recorded
// configuration rather than being refused or silently applied.
func TestDurableConfigMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(index.HNSW)
	const dim = 4
	c, err := OpenDurable(dir, cfg, linalg.L2, dim, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert(randVecs(10, dim, 7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenDurable(dir, cfg, linalg.L2, dim+1, 100); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := OpenDurable(dir, cfg, linalg.InnerProduct, dim, 100); err == nil {
		t.Fatal("metric mismatch accepted")
	}
	other := cfg
	other.IndexType = index.IVFFlat
	seeded := cfg
	seeded.Build.Seed = 999
	for _, open := range []Config{other, seeded, cfg} {
		r, err := OpenDurable(dir, open, linalg.L2, dim, 100)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Config(); got != cfg {
			t.Fatalf("opened with %+v: serving %+v, want the recorded %+v", open, got, cfg)
		}
		if got := r.Stats().Rows; got != 10 {
			t.Fatalf("opened with %+v: %d rows, want 10", open, got)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMemoryCollectionUnaffected: a NewCollection collection has no WAL,
// zero persistence stats, and Checkpoint is a no-op.
func TestMemoryCollectionUnaffected(t *testing.T) {
	c, err := NewCollection(durableConfig(index.Flat), linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Insert([][]float32{{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WALBytes != 0 || st.LastCheckpointLSN != 0 {
		t.Fatalf("memory collection reports persistence stats: %+v", st)
	}
}

// TestRecoveryDeterminism is the recovery-determinism gate: an engine
// crashed mid-churn and recovered must answer SearchBatch bit-identically
// to the uninterrupted engine and agree on Rows/Tombstones/Segments — at
// workers=1 and workers=N, across index types.
func TestRecoveryDeterminism(t *testing.T) {
	const dim, n, k, queries = 8, 900, 10, 32
	for _, typ := range []index.Type{index.Flat, index.HNSW, index.IVFFlat, index.SCANN} {
		for _, workers := range []int{1, 8} {
			for _, mode := range []string{"ckpt", "log"} {
				mode := mode
				t.Run(fmt.Sprintf("%v/workers=%d/%s", typ, workers, mode), func(t *testing.T) {
					cfg := durableConfig(typ)
					cfg.Parallelism = workers
					// Small segments so the workload seals several times and
					// deletes trigger compaction mid-run.
					cfg.SegmentMaxSize = 100
					cfg.SealProportion = 0.8

					vecs := randVecs(n, dim, 31)
					qs := randVecs(queries, dim, 32)

					dir := t.TempDir()
					live, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
					if err != nil {
						t.Fatal(err)
					}
					if mode == "log" {
						// Recovery must then rebuild compacted segments
						// from WAL commit records instead of snapshots.
						live.DisableAutoCheckpoint()
					}
					var ids []int64
					for off := 0; off < n; off += 90 {
						end := off + 90
						if end > n {
							end = n
						}
						got, err := live.Insert(vecs[off:end])
						if err != nil {
							t.Fatal(err)
						}
						ids = append(ids, got...)
						// Churn: delete a slice of the oldest live rows.
						if off > 0 && off%180 == 0 {
							if _, err := live.Delete(ids[off-60 : off-20]); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := live.Flush(); err != nil {
						t.Fatal(err)
					}
					preStats := live.Stats()
					preRes, err := live.SearchBatch(qs, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					live.Crash()

					rec, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
					if err != nil {
						t.Fatal(err)
					}
					defer rec.Close()
					if err := rec.Flush(); err != nil {
						t.Fatal(err)
					}
					postStats := rec.Stats()
					if postStats.Rows != preStats.Rows ||
						postStats.Tombstones != preStats.Tombstones ||
						postStats.Sealed != preStats.Sealed ||
						postStats.GrowingRows != preStats.GrowingRows {
						t.Fatalf("recovered stats %+v, pre-crash %+v", postStats, preStats)
					}
					postRes, err := rec.SearchBatch(qs, k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(preRes, postRes) {
						for i := range preRes {
							if !reflect.DeepEqual(preRes[i], postRes[i]) {
								t.Fatalf("query %d: pre-crash %v, recovered %v", i, preRes[i], postRes[i])
							}
						}
						t.Fatal("SearchBatch results differ after recovery")
					}
				})
			}
		}
	}
}

// TestRecoveryDeterminismAcrossWorkers: the recovered state is identical
// whether recovery (and the original run) used 1 worker or N.
func TestRecoveryDeterminismAcrossWorkers(t *testing.T) {
	const dim, n, k = 8, 400, 5
	run := func(workers int) [][]linalg.Neighbor {
		cfg := durableConfig(index.HNSW)
		cfg.Parallelism = workers
		cfg.SegmentMaxSize = 100
		cfg.SealProportion = 0.8
		vecs := randVecs(n, dim, 77)
		qs := randVecs(16, dim, 78)
		dir := t.TempDir()
		c, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := c.Insert(vecs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(ids[100:160]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c.Crash()
		r, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		res, err := r.SearchBatch(qs, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if !reflect.DeepEqual(run(1), run(8)) {
		t.Fatal("recovered results differ between workers=1 and workers=8")
	}
}

// TestWALFilesBounded: checkpoints keep at most two snapshot generations
// per shard and the log files the older of them need: a log file goes
// once every shard's retained snapshot covers it.
func TestWALFilesBounded(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		cfg := durableConfig(index.Flat)
		cfg.ShardCount = shards
		c, err := OpenDurable(dir, cfg, linalg.L2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := c.Insert(randVecs(20, 4, int64(9+i))); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		man, err := persist.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			snaps, err := filepath.Glob(filepath.Join(man.ShardDir(dir, i), "*.snap"))
			if err != nil || len(snaps) > 2 {
				t.Fatalf("S=%d: shard %d retains %d snapshots, want <= 2 (%v)", shards, i, len(snaps), err)
			}
		}
		// Each checkpoint rotates the log: the file the older snapshots
		// were taken in, and the rotations of the two checkpoint rounds.
		wals, err := persist.WALFileNames(man.LogDir(dir))
		if err != nil || len(wals) > 2*shards+1 {
			t.Fatalf("S=%d: %d WAL files retained, want <= %d (%v)", shards, len(wals), 2*shards+1, err)
		}
		t.Logf("S=%d: %d WAL files retained", shards, len(wals))
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestManifestV3Adopted: testdata/manifest-v3 is a three-shard IVF_FLAT
// data directory as the engine wrote it while every shard kept its own
// WAL — manifest version 3, generation 0, a log in every shard
// directory, each with inserts, seals and deletes past its shard's
// snapshot — crashed under fsync always. testdata/manifest-v3.golden.json
// holds the queries and what that engine's recovery of it answered: the
// ids and the distance bits. The directory opens and answers the same,
// and is then a version-4 directory at generation 1 with one log, which
// answers the same again after a restart. A kill between the adoption's
// snapshots and its manifest rename leaves the generation-1 directory
// beside the untouched version-3 layout: it reopens as version 3 and
// adopts again.
func TestManifestV3Adopted(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "manifest-v3.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Rows     int64
		Queries  [][]uint32
		IDs      [][]int64
		DistBits [][]uint32
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	qs := make([][]float32, len(golden.Queries))
	for i, bits := range golden.Queries {
		for _, b := range bits {
			qs[i] = append(qs[i], math.Float32frombits(b))
		}
	}
	// open recovers dir and checks it against the golden answers.
	open := func(dir string) *Collection {
		t.Helper()
		c, err := OpenDurable(dir, DefaultConfig(), linalg.L2, 8, 100)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.SearchBatch(qs, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rows := c.Stats().Rows; rows != golden.Rows {
			t.Fatalf("recovered %d rows, the version-3 engine %d", rows, golden.Rows)
		}
		for i, r := range res {
			for j, nb := range r {
				if nb.ID != golden.IDs[i][j] || math.Float32bits(nb.Dist) != golden.DistBits[i][j] {
					t.Fatalf("query %d rank %d: id %d dist %v, the version-3 engine answered id %d dist %v",
						i, j, nb.ID, nb.Dist, golden.IDs[i][j], math.Float32frombits(golden.DistBits[i][j]))
				}
			}
		}
		return c
	}
	adopted := func(dir string) {
		t.Helper()
		man, err := persist.LoadManifest(dir)
		if err != nil || man.Version != persist.ManifestVersion || man.Generation != 1 || man.Shards != 3 {
			t.Fatalf("adopted manifest %+v (%v), want version %d at generation 1", man, err, persist.ManifestVersion)
		}
		if wals, err := persist.WALFileNames(man.LogDir(dir)); err != nil || len(wals) == 0 {
			t.Fatalf("adopted directory holds %d log files (%v)", len(wals), err)
		}
		if _, err := os.Stat(filepath.Join(dir, "shard-0")); !os.IsNotExist(err) {
			t.Fatalf("version-3 shard directory survived the adoption: %v", err)
		}
	}

	dir := filepath.Join(t.TempDir(), "v3")
	copyTree(t, filepath.Join("testdata", "manifest-v3"), dir)
	c := open(dir)
	adopted(dir)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = open(dir)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The kill: an adoption crashed right after it wrote generation 1.
	killed := filepath.Join(t.TempDir(), "killed")
	copyTree(t, filepath.Join("testdata", "manifest-v3"), killed)
	donor := filepath.Join(t.TempDir(), "donor")
	copyTree(t, filepath.Join("testdata", "manifest-v3"), donor)
	c, err = OpenDurable(donor, DefaultConfig(), linalg.L2, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	c.Crash()
	copyTree(t, persist.GenDir(donor, 1), persist.GenDir(killed, 1))
	if man, err := persist.LoadManifest(killed); err != nil || man.Version != 3 {
		t.Fatalf("killed adoption's manifest %+v (%v), want version 3", man, err)
	}
	c = open(killed)
	adopted(killed)
	c.Crash()
}

// copyTree copies the directory tree src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLogRecordNamingAbsentShardIsCorrupt: a seal or compaction-commit
// record whose shard index is not a shard of the manifest's set — hostile
// or damaged bytes behind a valid checksum — fails recovery with a
// *persist.CorruptError, not an index panic.
func TestLogRecordNamingAbsentShardIsCorrupt(t *testing.T) {
	for _, rec := range []func(w *persist.WAL) (uint64, error){
		func(w *persist.WAL) (uint64, error) { return w.AppendFlush(2, 0) },
		func(w *persist.WAL) (uint64, error) { return w.AppendCompactCommit(7, 1, []int64{0}, nil, nil) },
	} {
		dir := t.TempDir()
		cfg := flatConfig(2)
		cfg.WALFsyncPolicy = 3 // always
		c, err := OpenDurable(dir, cfg, linalg.L2, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Insert(randVecs(10, 4, 3)); err != nil {
			t.Fatal(err)
		}
		head := c.Stats().WALLastLSN
		c.Crash()
		man, err := persist.LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		w, err := persist.OpenWAL(persist.Options{Dir: man.LogDir(dir), Policy: persist.SyncAlways}, head+1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var corrupt *persist.CorruptError
		if r, err := OpenDurable(dir, cfg, linalg.L2, 4, 100); !errors.As(err, &corrupt) || !strings.Contains(err.Error(), "names shard") {
			if r != nil {
				r.Crash()
			}
			t.Fatalf("recovery of a record naming shard >= 2: %v, want a *persist.CorruptError", err)
		}
	}
}
