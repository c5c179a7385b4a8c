package vdms

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// churnCollection builds a collection with 4 sealed segments of 250 rows
// and then deletes every other id, returning the collection, the inserted
// vectors, and the ids.
func churnCollection(t *testing.T, cfg Config) (*Collection, [][]float32, []int64) {
	t.Helper()
	coll, err := NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coll.Close() })
	vecs := randVecs(1000, 8, 42)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	var dead []int64
	for i := 0; i < len(ids); i += 2 {
		dead = append(dead, ids[i])
	}
	if n, err := coll.Delete(dead); err != nil || n != len(dead) {
		t.Fatalf("Delete = %d, %v; want %d", n, err, len(dead))
	}
	// Quiesce any compaction the deletes triggered.
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	return coll, vecs, ids
}

// searchWork measures the distance-computation work of one query.
func searchWork(t *testing.T, coll *Collection, q []float32, k int) int64 {
	t.Helper()
	var st index.Stats
	if _, err := coll.Search(q, k, &st); err != nil {
		t.Fatal(err)
	}
	return st.DistComps + st.CodeComps
}

func TestCompactionReclaimsChurn(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(1000, 8, 42)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	fullStats := coll.Stats()
	fullWork := searchWork(t, coll, vecs[1], 10)

	// Mass delete: every other id. The deletes trigger background
	// compaction; Flush quiesces it.
	var dead []int64
	for i := 0; i < len(ids); i += 2 {
		dead = append(dead, ids[i])
	}
	if n, err := coll.Delete(dead); err != nil || n != len(dead) {
		t.Fatalf("Delete = %d, %v; want %d", n, err, len(dead))
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}

	st := coll.Stats()
	// All tombstones must be garbage-collected: the set every search
	// excludes no longer scales with the all-time delete count.
	if st.Tombstones != 0 {
		t.Fatalf("tombstones = %d after compaction, want 0 (all GC'd)", st.Tombstones)
	}
	if st.Rows != 500 {
		t.Fatalf("live rows = %d, want 500", st.Rows)
	}
	if st.ReclaimedRows != 500 {
		t.Fatalf("reclaimed rows = %d, want 500", st.ReclaimedRows)
	}
	if st.CompactionPasses == 0 || st.CompactedSegments == 0 {
		t.Fatalf("compaction counters empty: %+v", st)
	}
	// The footprint must shrink below the pre-delete (== uncompacted,
	// since tombstones free nothing) level.
	if st.MemoryBytes >= fullStats.MemoryBytes {
		t.Fatalf("memory not reclaimed: %d >= pre-delete %d", st.MemoryBytes, fullStats.MemoryBytes)
	}
	// Per-search scanned work must shrink with the corpus, not grow with
	// the delete history.
	if afterWork := searchWork(t, coll, vecs[1], 10); afterWork >= fullWork {
		t.Fatalf("search work after compaction %d >= pre-delete %d", afterWork, fullWork)
	}

	// Results stay correct: live vectors findable, deleted ids absent.
	for _, probe := range []int{1, 501, 999} {
		res, err := coll.Search(vecs[probe], 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 5 {
			t.Fatalf("probe %d returned %d results, want 5", probe, len(res))
		}
		if res[0].ID != ids[probe] {
			t.Fatalf("probe %d: self-search top hit %+v, want id %d", probe, res[0], ids[probe])
		}
		for _, r := range res {
			if r.ID%2 == 0 {
				t.Fatalf("deleted id %d returned after compaction", r.ID)
			}
		}
	}

	// Compact on a quiesced collection is a cheap no-op.
	if err := coll.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := coll.Stats(); s.Sealed != st.Sealed || s.Rows != 500 {
		t.Fatalf("idempotent Compact changed state: %+v -> %+v", st, s)
	}
}

func TestCompactionDeterministicAcrossWorkers(t *testing.T) {
	// workers=1 and workers=N must produce bit-identical sealed segments —
	// ids, rows read back through the index (IVF_FLAT's and SCANN's
	// cell-major arenas) and index sizes — and search results.
	for _, typ := range []index.Type{index.IVFFlat, index.SCANN} {
		t.Run(typ.String(), func(t *testing.T) {
			mk := func(parallelism, compactWorkers int) *Collection {
				cfg := liveConfig()
				cfg.IndexType = typ
				cfg.Parallelism = parallelism
				cfg.CompactionParallelism = compactWorkers
				coll, _, _ := churnCollection(t, cfg)
				if err := coll.Compact(); err != nil {
					t.Fatal(err)
				}
				return coll
			}
			a := mk(1, 1)
			b := mk(8, 8)

			// These collections run at the default shard_count of 1; compare
			// the single shard's sealed layout directly.
			a.shards[0].mu.RLock()
			bSegs := b.shards[0].sealed
			aSegs := a.shards[0].sealed
			a.shards[0].mu.RUnlock()
			if len(aSegs) != len(bSegs) {
				t.Fatalf("segment layouts differ: %d vs %d", len(aSegs), len(bSegs))
			}
			for i := range aSegs {
				if len(aSegs[i].ids) != len(bSegs[i].ids) {
					t.Fatalf("segment %d sizes differ: %d vs %d", i, len(aSegs[i].ids), len(bSegs[i].ids))
				}
				for j := range aSegs[i].ids {
					if aSegs[i].ids[j] != bSegs[i].ids[j] {
						t.Fatalf("segment %d id %d differs: %d vs %d", i, j, aSegs[i].ids[j], bSegs[i].ids[j])
					}
					if !reflect.DeepEqual(aSegs[i].row(j), bSegs[i].row(j)) {
						t.Fatalf("segment %d row %d differs", i, j)
					}
				}
				if aSegs[i].pos == nil || aSegs[i].idx.MemoryBytes() != bSegs[i].idx.MemoryBytes() {
					t.Fatalf("segment %d: permuted = %v, index sizes %d vs %d", i, aSegs[i].pos != nil, aSegs[i].idx.MemoryBytes(), bSegs[i].idx.MemoryBytes())
				}
			}

			queries := randVecs(20, 8, 77)
			var stA, stB index.Stats
			resA, err := a.SearchBatch(queries, 7, &stA)
			if err != nil {
				t.Fatal(err)
			}
			resB, err := b.SearchBatch(queries, 7, &stB)
			if err != nil {
				t.Fatal(err)
			}
			if stA != stB {
				t.Fatalf("search work differs: %+v vs %+v", stA, stB)
			}
			if !reflect.DeepEqual(resA, resB) {
				t.Fatal("search results differ")
			}
		})
	}
}

func TestCompactionMergesUndersizedSegments(t *testing.T) {
	// sealRows = 512*0.25*400/512 = 100; three 30-row flushes create three
	// undersized sealed segments that the compactor must merge into one.
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var all [][]float32
	var ids []int64
	for round := 0; round < 3; round++ {
		vecs := randVecs(30, 8, int64(round))
		got, err := coll.Insert(vecs)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, vecs...)
		ids = append(ids, got...)
		if err := coll.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := coll.Compact(); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	if st.Sealed != 1 {
		t.Fatalf("merge left %d sealed segments, want 1 (%+v)", st.Sealed, st)
	}
	if st.Rows != 90 || st.GrowingRows != 0 {
		t.Fatalf("rows after merge: %+v", st)
	}
	if st.CompactedSegments < 2 {
		t.Fatalf("merge consumed %d segments, want >= 2", st.CompactedSegments)
	}
	for probe := 0; probe < len(all); probe += 13 {
		res, err := coll.Search(all[probe], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != ids[probe] {
			t.Fatalf("probe %d lost after merge: %+v, want id %d", probe, res, ids[probe])
		}
	}
}

func TestDeleteReclaimedIDsStayDeleted(t *testing.T) {
	// Deleting a growing row physically removes it and GCs its tombstone
	// at once; a re-delete of the same id must still count 0.
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	ids, err := coll.Insert(randVecs(30, 8, 11))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := coll.Delete(ids[:10]); n != 10 {
		t.Fatalf("Delete = %d, want 10", n)
	}
	if d := coll.Stats().Tombstones; d != 0 {
		t.Fatalf("growing deletes left %d tombstones, want 0 (physically removed)", d)
	}
	if n, _ := coll.Delete(ids[:10]); n != 0 {
		t.Fatalf("re-delete of reclaimed growing ids counted %d, want 0", n)
	}
	if st := coll.Stats(); st.Rows != 20 || st.GrowingRows != 20 {
		t.Fatalf("stats after growing delete: %+v", st)
	}

	// Same invariant through the sealed + compacted path.
	sealed, _, sids := churnCollection(t, liveConfig())
	if d := sealed.Stats().Tombstones; d != 0 {
		t.Fatalf("tombstones = %d after compaction, want 0", d)
	}
	var again []int64
	for i := 0; i < len(sids); i += 2 {
		again = append(again, sids[i])
	}
	if n, _ := sealed.Delete(again); n != 0 {
		t.Fatalf("re-delete of compacted-away ids counted %d, want 0", n)
	}
	if st := sealed.Stats(); st.Rows != 500 {
		t.Fatalf("re-delete changed live rows: %+v", st)
	}
}

func TestSearchDimMismatch(t *testing.T) {
	// Regression: Search used to panic (index out of range inside the
	// distance kernel) on a wrong-dimension query; it must return the same
	// validation error SearchBatch does.
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := coll.Insert(randVecs(300, 8, 13)); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range [][]float32{nil, {1, 2}, make([]float32, 9)} {
		if _, err := coll.Search(q, 3, nil); err == nil {
			t.Fatalf("Search accepted dim-%d query on dim-8 collection", len(q))
		}
	}
	// Valid queries still work.
	if _, err := coll.Search(make([]float32, 8), 3, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloseWaitsForInFlightBuilds(t *testing.T) {
	// Regression for the Close race: an Insert landing between Close's
	// build-wait and its closed=true used to spawn a background build that
	// Close never waited for. Close now sets closed first, so after it
	// returns no build can be in flight and the segment layout is frozen.
	for iter := 0; iter < 8; iter++ {
		coll, err := NewCollection(liveConfig(), linalg.L2, 8, 100) // sealRows = 48
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func(seed int64) {
			defer close(done)
			for i := 0; ; i++ {
				if _, err := coll.Insert(randVecs(48, 8, seed+int64(i))); err != nil {
					return // collection closed
				}
			}
		}(int64(1000 * iter))
		time.Sleep(time.Millisecond)
		if err := coll.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		st := coll.Stats()
		if st.Sealing != 0 {
			t.Fatalf("Close returned with %d builds still in flight", st.Sealing)
		}
		time.Sleep(2 * time.Millisecond)
		if st2 := coll.Stats(); st2.Sealed != st.Sealed || st2.Sealing != 0 {
			t.Fatalf("segment layout changed after Close: %+v -> %+v", st, st2)
		}
	}
}

// TestFlushRacesConcurrentSeals: Flush's wait on background work races
// inserts that seal, each seal starting a build, possibly from none in
// flight. Flush in a tight loop beside three inserters of small batches,
// sealing at the 48-row floor, must neither panic nor hang, and the rows
// must add up. The inserters have a fixed budget: a Flush waits for a
// moment with no build in flight, which steady inserts can postpone.
func TestFlushRacesConcurrentSeals(t *testing.T) {
	batches := 30000
	if raceEnabled {
		batches = 10000
	}
	cfg := DefaultConfig()
	cfg.IndexType = index.Flat
	coll, err := NewCollection(cfg, linalg.L2, 8, 100) // sealRows = 48
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var running atomic.Int32
	running.Store(3)
	var insertErrs [3]error
	for w := 0; w < 3; w++ {
		go func(w int) {
			defer running.Add(-1)
			for i := 0; i < batches; i++ {
				if _, err := coll.Insert(randVecs(4, 8, int64(batches*w+i))); err != nil {
					insertErrs[w] = err
					return
				}
			}
		}(w)
	}
	flushes := 0
	for ; running.Load() > 0; flushes++ {
		if err := coll.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range insertErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := coll.Stats(); st.Rows != int64(3*4*batches) || st.Sealing != 0 {
		t.Fatalf("after %d flushes: %d rows, %d builds in flight; want %d rows, none in flight", flushes, st.Rows, st.Sealing, 3*4*batches)
	}
}

// TestCompactWaitsForPendingLandings: a segment whose index is still
// being built is not plannable, and its landing starts the pass its
// tombstones warrant. Compact waits for that landing and that pass, so
// when it returns the tombstones are gone.
func TestCompactWaitsForPendingLandings(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 4000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	s := coll.shards[0]
	vecs := randVecs(2000, 8, 17)
	dead := make([]int64, 0, len(vecs)/2)
	s.mu.Lock()
	for i, v := range vecs {
		s.applyInsertRowLocked(int64(i), v)
		if i%2 == 0 {
			dead = append(dead, int64(i))
		}
	}
	s.sealLocked() // cannot land before the lock is released
	s.deleteLocked(dead, nil)
	s.mu.Unlock()
	if err := coll.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := coll.Stats(); st.Tombstones != 0 || st.Sealing != 0 || st.CompactionPasses == 0 {
		t.Fatalf("after Compact: %d tombstones, %d builds in flight, %d passes; want 0, 0, > 0", st.Tombstones, st.Sealing, st.CompactionPasses)
	}
}
