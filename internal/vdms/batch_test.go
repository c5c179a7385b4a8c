package vdms

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

func batchCollection(t *testing.T, metric linalg.Metric, dim int, parallelism int) *Collection {
	t.Helper()
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 8
	cfg.Search.NProbe = 8
	cfg.Parallelism = parallelism
	coll, err := NewCollection(cfg, metric, dim, 2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coll.Close() })
	return coll
}

// TestSearchBatchEdgeCases is the table-driven contract of the batched
// search API across degenerate inputs.
func TestSearchBatchEdgeCases(t *testing.T) {
	const dim = 8
	cases := []struct {
		name    string
		metric  linalg.Metric
		rows    int // inserted before the batch
		queries [][]float32
		k       int
		wantErr bool
		// wantPerQuery is the expected result count per query; -1 skips
		// the check.
		wantPerQuery int
	}{
		{
			name: "empty batch", metric: linalg.L2, rows: 50,
			queries: nil, k: 3, wantPerQuery: -1,
		},
		{
			name: "k greater than n", metric: linalg.L2, rows: 4,
			queries: randVecs(3, dim, 1), k: 25, wantPerQuery: 4,
		},
		{
			name: "k far beyond n", metric: linalg.L2, rows: 4,
			queries: randVecs(3, dim, 1), k: math.MaxInt, wantPerQuery: 4,
		},
		{
			name: "dim mismatch", metric: linalg.L2, rows: 20,
			queries: [][]float32{make([]float32, dim), make([]float32, dim-3)},
			k:       3, wantErr: true,
		},
		{
			name: "zero k", metric: linalg.L2, rows: 20,
			queries: randVecs(2, dim, 2), k: 0, wantErr: true,
		},
		{
			name: "zero-vector angular queries", metric: linalg.Angular, rows: 60,
			queries: [][]float32{make([]float32, dim), make([]float32, dim)},
			k:       5, wantPerQuery: 5,
		},
		{
			name: "batch on empty collection", metric: linalg.L2, rows: 0,
			queries: randVecs(2, dim, 3), k: 3, wantPerQuery: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coll := batchCollection(t, tc.metric, dim, 4)
			if tc.rows > 0 {
				if _, err := coll.Insert(randVecs(tc.rows, dim, 42)); err != nil {
					t.Fatal(err)
				}
			}
			var st index.Stats
			out, err := coll.SearchBatch(tc.queries, tc.k, &st)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("expected error, got %d result lists", len(out))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tc.queries) {
				t.Fatalf("got %d result lists for %d queries", len(out), len(tc.queries))
			}
			if tc.wantPerQuery >= 0 {
				for qi, res := range out {
					if len(res) != tc.wantPerQuery {
						t.Fatalf("query %d returned %d neighbors, want %d", qi, len(res), tc.wantPerQuery)
					}
				}
			}
		})
	}
}

// searchEach answers qs one Search call — one Q=1 batch — at a time.
func searchEach(t *testing.T, coll *Collection, qs [][]float32, k int, st *index.Stats) [][]linalg.Neighbor {
	t.Helper()
	out := make([][]linalg.Neighbor, len(qs))
	for qi, q := range qs {
		res, err := coll.Search(q, k, st)
		if err != nil {
			t.Fatal(err)
		}
		out[qi] = res
	}
	return out
}

// TestSearchBatchMatchesSearch: on a quiescent collection a query's answer
// and its Stats do not depend on the batch it arrives in — alone (Search
// is the one-query batch) or among thirty — and both are the values the
// per-query shard probe returned before it was deleted (recorded at the
// parent commit through Collection.Search).
func TestSearchBatchMatchesSearch(t *testing.T) {
	const dim = 8
	const goldenHash, goldenDistComps = 0xeef33bde6d55d0f, 15240
	coll := batchCollection(t, linalg.Angular, dim, 8)
	if _, err := coll.Insert(randVecs(500, dim, 7)); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	queries := randVecs(30, dim, 8)
	var wantSt, gotSt index.Stats
	want := searchEach(t, coll, queries, 5, &wantSt)
	got, err := coll.SearchBatch(queries, 5, &gotSt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("batched results differ from one query at a time")
	}
	if gotSt != wantSt {
		t.Fatalf("batched stats %+v, one at a time %+v", gotSt, wantSt)
	}
	if h := hashResults(got); h != goldenHash || gotSt != (index.Stats{DistComps: goldenDistComps}) {
		t.Fatalf("results %#x stats %+v, golden %#x DistComps %d", h, gotSt, uint64(goldenHash), goldenDistComps)
	}
}

// TestSearchBatchMatchesSearchMatrix is the tiled batch path's
// equivalence gate: across shard counts, worker counts, and a post-crash
// recovery, a query answered alone, inside a 7-query batch (one ragged
// tile) and inside the 70-query batch (two query tiles, the second
// ragged) returns bit-identical results with exactly-summed stats. The
// churned workload leaves tombstones, so deleted rows are excluded where
// they are offered. The bits are anchored twice: segments are FLAT, so
// every answer must equal a brute-force scan of the live rows, and the
// whole result set must hash to the value recorded at the parent commit
// through the per-query shard probe this path replaced (and, then, a
// k+T-wide collector filtered afterwards).
func TestSearchBatchMatchesSearchMatrix(t *testing.T) {
	const dim, n, k = 8, 500, 6
	const goldenHash = 0xeba97a629f0def25
	goldenDistComps := map[int]int64{1: 26880, 4: 27860}
	vecs := randVecs(n, dim, 51)
	qs := randVecs(70, dim, 52)
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 8} {
			for _, recovered := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/workers=%d/recovered=%v", shards, workers, recovered)
				t.Run(name, func(t *testing.T) {
					cfg := flatConfig(shards)
					cfg.Parallelism = workers
					var coll *Collection
					var ids []int64
					if recovered {
						cfg.WALFsyncPolicy = 3 // always: survive the crash intact
						dir := t.TempDir()
						live, err := OpenDurable(dir, cfg, linalg.L2, dim, n)
						if err != nil {
							t.Fatal(err)
						}
						ids = runChurn(t, live, vecs)
						live.Crash()
						coll, err = OpenDurable(dir, cfg, linalg.L2, dim, n)
						if err != nil {
							t.Fatal(err)
						}
						if err := coll.Flush(); err != nil {
							t.Fatal(err)
						}
					} else {
						var err error
						coll, err = NewCollection(cfg, linalg.L2, dim, n)
						if err != nil {
							t.Fatal(err)
						}
						ids = runChurn(t, coll, vecs)
					}
					defer coll.Close()
					var seqSt, batchSt index.Stats
					want := searchEach(t, coll, qs, k, &seqSt)
					got, err := coll.SearchBatch(qs, k, &batchSt)
					if err != nil {
						t.Fatal(err)
					}
					ragged, err := coll.SearchBatch(qs[:7], k, nil)
					if err != nil {
						t.Fatal(err)
					}
					dead := churnDeleted(ids)
					for qi, q := range qs {
						if !reflect.DeepEqual(got[qi], want[qi]) {
							t.Fatalf("query %d: in the batch %v, alone %v", qi, got[qi], want[qi])
						}
						if qi < len(ragged) && !reflect.DeepEqual(ragged[qi], want[qi]) {
							t.Fatalf("query %d: in the 7-query batch %v, alone %v", qi, ragged[qi], want[qi])
						}
						top := linalg.NewTopK(k)
						for i, v := range vecs {
							if !dead[ids[i]] {
								top.Push(ids[i], linalg.Distance(linalg.L2, q, v))
							}
						}
						if ref := top.Results(); !reflect.DeepEqual(want[qi], ref) {
							t.Fatalf("query %d: %v, brute force over the live rows %v", qi, want[qi], ref)
						}
					}
					if batchSt != seqSt {
						t.Fatalf("batch stats %+v, one at a time %+v", batchSt, seqSt)
					}
					if h := hashResults(got); h != goldenHash || batchSt != (index.Stats{DistComps: goldenDistComps[shards]}) {
						t.Fatalf("results %#x stats %+v, golden %#x DistComps %d", h, batchSt, uint64(goldenHash), goldenDistComps[shards])
					}
				})
			}
		}
	}
}

// TestSearchBatchTilesIdenticalAcrossWorkers covers batches that form
// several query tiles per shard, which only batches of more than 64
// queries do: a 2·64+5-query batch over IVF_FLAT segments (sealed and
// indexed, plus a growing tail), at 1 and 3 shards and queryNode
// parallelism 1 and 8, must answer every query with the bits of sequential
// Search, its Stats summing exactly to theirs, and the same bits at either
// worker count.
func TestSearchBatchTilesIdenticalAcrossWorkers(t *testing.T) {
	const dim, n, k = 8, 1500, 7
	vecs := randVecs(n, dim, 61)
	qs := randVecs(2*64+5, dim, 62)
	for _, shards := range []int{1, 3} {
		var first [][]linalg.Neighbor
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.IndexType = index.IVFFlat
				cfg.Build.NList = 16
				cfg.Search.NProbe = 5
				cfg.SegmentMaxSize = 400
				cfg.ShardCount = shards
				cfg.Parallelism = workers
				coll, err := NewCollection(cfg, linalg.L2, dim, n)
				if err != nil {
					t.Fatal(err)
				}
				defer coll.Close()
				if _, err := coll.Insert(vecs[:n-100]); err != nil {
					t.Fatal(err)
				}
				if err := coll.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := coll.Insert(vecs[n-100:]); err != nil {
					t.Fatal(err)
				}
				if st := coll.Stats(); st.Sealed == 0 || st.GrowingRows == 0 {
					t.Fatalf("want sealed segments and a growing tail, have %+v", st)
				}
				if tiles := (len(qs) + coll.queryTileSize() - 1) / coll.queryTileSize(); tiles != 3 {
					t.Fatalf("%d tiles per shard, want 3", tiles)
				}
				var seqSt, batchSt index.Stats
				want := searchEach(t, coll, qs, k, &seqSt)
				got, err := coll.SearchBatch(qs, k, &batchSt)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range qs {
					if !reflect.DeepEqual(got[qi], want[qi]) {
						t.Fatalf("query %d: in the batch %v, alone %v", qi, got[qi], want[qi])
					}
				}
				if batchSt != seqSt || batchSt.DistComps == 0 {
					t.Fatalf("batch stats %+v, one at a time %+v", batchSt, seqSt)
				}
				if first == nil {
					first = got
				} else if !reflect.DeepEqual(got, first) {
					t.Fatal("results differ from the one-worker run")
				}
			})
		}
	}
}

// TestQueryTileSize pins the query-tile width per dimension and shows it
// does not depend on the worker count: the L1 rule alone, clamped to
// [4, 64], at queryNode parallelism 1, 2 and 8.
func TestQueryTileSize(t *testing.T) {
	want := map[int]int{1: 64, 8: 64, 100: 64, 128: 64, 200: 40, 512: 16, 1000: 8, 4096: 4}
	for dim, tile := range want {
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Parallelism = workers
			coll, err := NewCollection(cfg, linalg.L2, dim, 100)
			if err != nil {
				t.Fatal(err)
			}
			if got := coll.queryTileSize(); got != tile {
				t.Errorf("dim %d parallelism %d: tile %d, want %d", dim, workers, got, tile)
			}
			coll.Close()
		}
	}
}

// TestSearchBatchLiveRace hammers a live collection with concurrent
// batched searches while inserts, deletes, and flushes mutate the segment
// lifecycle. Run under -race this is the proof that the batch fan-out
// (many goroutines sharing one read lock) is safe against writers.
func TestSearchBatchLiveRace(t *testing.T) {
	const dim = 8
	coll := batchCollection(t, linalg.L2, dim, 8)
	ids, err := coll.Insert(randVecs(300, dim, 9))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	// Batched searchers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := randVecs(16, dim, int64(100+w))
			for i := 0; i < 30; i++ {
				var st index.Stats
				out, err := coll.SearchBatch(queries, 5, &st)
				if err != nil {
					errs <- err
					return
				}
				if len(out) != len(queries) {
					errs <- fmt.Errorf("batch returned %d of %d lists", len(out), len(queries))
					return
				}
			}
		}(w)
	}
	// Inserters: enough rows to trip seals and background index builds.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := coll.Insert(randVecs(40, dim, int64(200+10*w+i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Deleter.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+3 <= len(ids); i += 3 {
			if _, err := coll.Delete(ids[i : i+3]); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Flusher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := coll.Flush(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	// Rows counts live rows: all 300 seeded ids were deleted exactly once,
	// leaving only the concurrent inserters' rows.
	if st.Rows != 2*10*40 {
		t.Fatalf("rows = %d, want %d", st.Rows, 2*10*40)
	}
}
