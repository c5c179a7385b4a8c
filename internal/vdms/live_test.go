package vdms

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
	"vdtuner/internal/workload"
)

func liveConfig() Config {
	cfg := DefaultConfig()
	cfg.IndexType = index.IVFFlat
	cfg.Build.NList = 16
	cfg.Search.NProbe = 16
	return cfg
}

func randVecs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		out[i] = make([]float32, dim)
		for j := range out[i] {
			out[i][j] = float32(rng.NormFloat64())
		}
	}
	return out
}

func TestCollectionInsertSearch(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(50, 8, 1)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 50 {
		t.Fatalf("got %d ids", len(ids))
	}
	// A stored vector must be its own nearest neighbor.
	res, err := coll.Search(vecs[7], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != ids[7] {
		t.Fatalf("self-search returned %+v, want id %d", res, ids[7])
	}
}

// TestSampleBoundedByRows: SampleVectors' count sizes the answer's
// backing array, so the collection bounds it by the live rows first.
// 2^31-1 vectors asked of 100 rows answers with the live ones; unbounded,
// that is a 48 GB allocation the runtime refuses with a fatal error no
// recover can catch.
func TestSampleBoundedByRows(t *testing.T) {
	const rows = 100
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	ids, err := coll.Insert(randVecs(rows, 8, 63))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Delete(ids[3:4]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	vecs := coll.SampleVectors(math.MaxInt32)
	runtime.ReadMemStats(&after)
	if len(vecs) != rows-1 {
		t.Fatalf("sampled %d vectors, want the %d live rows", len(vecs), rows-1)
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("sample of %d over %d rows allocated %d bytes", math.MaxInt32, rows, grown)
	}
}

func TestCollectionSealsAndBuilds(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	// sealRows = max(48, 512*0.25*1000/512) = 250.
	vecs := randVecs(600, 8, 2)
	if _, err := coll.Insert(vecs); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	st := coll.Stats()
	if st.Rows != 600 {
		t.Fatalf("rows = %d", st.Rows)
	}
	if st.Sealed < 2 {
		t.Fatalf("expected >= 2 sealed segments, got %+v", st)
	}
	if st.Sealing != 0 || st.GrowingRows != 0 {
		t.Fatalf("flush left unsealed data: %+v", st)
	}
	if st.MemoryBytes <= 0 {
		t.Fatalf("memory = %d", st.MemoryBytes)
	}
}

func TestCollectionSearchDuringBuild(t *testing.T) {
	// Data must remain findable through every lifecycle state.
	cfg := liveConfig()
	cfg.IndexType = index.HNSW
	cfg.Build.HNSWM = 8
	cfg.Build.EfConstruction = 64
	cfg.Search.Ef = 64
	coll, err := NewCollection(cfg, linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(520, 8, 3)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately search (builds may be in flight) for several vectors.
	for _, probe := range []int{0, 120, 300, 519} {
		res, err := coll.Search(vecs[probe], 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res {
			if r.ID == ids[probe] {
				found = true
			}
		}
		if !found {
			t.Fatalf("vector %d not findable mid-build", probe)
		}
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionConcurrentInsertSearch(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 2000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(1000, 8, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 250; i < (w+1)*250; i += 10 {
				if _, err := coll.Insert(vecs[i : i+10]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := vecs[w]
			for i := 0; i < 50; i++ {
				if _, err := coll.Search(q, 5, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := coll.Stats(); st.Rows != 1000 {
		t.Fatalf("rows = %d, want 1000", st.Rows)
	}
}

func TestCollectionAngularNormalizes(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.Angular, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	// Same direction, different magnitudes: must be nearest neighbors.
	a := []float32{1, 0, 0, 0}
	b := []float32{100, 0, 0, 0}
	cvec := []float32{0, 1, 0, 0}
	ids, err := coll.Insert([][]float32{a, cvec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coll.Search(b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != ids[0] {
		t.Fatalf("angular search returned %+v, want id %d", res, ids[0])
	}
}

// TestCollectionAngularExtremeScales: rows along one direction at scales
// whose float32 squared norm underflows (1e-20), is ordinary (1) and
// overflows (3e19) are stored as the same unit vector, so an Angular FLAT
// query along that direction, at any of the three scales, ranks all three
// first — ahead of rows a few degrees off it.
func TestCollectionAngularExtremeScales(t *testing.T) {
	coll, err := NewCollection(flatConfig(1), linalg.Angular, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	dir := []float32{3, 1, -2, 0.5}
	along := func(scale float32) []float32 {
		v := make([]float32, len(dir))
		for i, x := range dir {
			v[i] = x * scale
		}
		return v
	}
	scales := []float32{1e-20, 1, 3e19}
	rows := [][]float32{{3, 1.2, -2, 0.5}, {3, 1, -1.8, 0.5}, {2.8, 1, -2, 0.5}}
	for _, s := range scales {
		rows = append(rows, along(s))
	}
	ids, err := coll.Insert(rows)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{}
	for _, id := range ids[3:] {
		want[id] = true
	}
	for _, s := range scales {
		res, err := coll.Search(along(s), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res {
			if !want[nb.ID] || nb.Dist > 1e-6 {
				t.Fatalf("query at scale %g: got %+v, want ids %v first, at distance ~0", s, res, ids[3:])
			}
		}
	}
}

func TestCollectionErrors(t *testing.T) {
	if _, err := NewCollection(liveConfig(), linalg.L2, 0, 100); err == nil {
		t.Fatal("accepted dim=0")
	}
	if _, err := NewCollection(liveConfig(), linalg.L2, 4, 0); err == nil {
		t.Fatal("accepted expectedRows=0")
	}
	bad := liveConfig()
	bad.Parallelism = 0
	if _, err := NewCollection(bad, linalg.L2, 4, 100); err == nil {
		t.Fatal("accepted invalid config")
	}
	coll, err := NewCollection(liveConfig(), linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Insert([][]float32{{1, 2}}); err == nil {
		t.Fatal("accepted wrong dimension")
	}
	if _, err := coll.Search([]float32{1, 2, 3, 4}, 0, nil); err == nil {
		t.Fatal("accepted k=0")
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Insert([][]float32{{1, 2, 3, 4}}); err == nil {
		t.Fatal("insert after close succeeded")
	}
	if _, err := coll.Search([]float32{1, 2, 3, 4}, 1, nil); err == nil {
		t.Fatal("search after close succeeded")
	}
}

func TestCollectionMatchesGroundTruth(t *testing.T) {
	// Recall of a fully-probed IVF collection over streamed inserts must
	// be exact.
	ds, err := workload.Load(workload.Spec{
		Name: "live-truth", N: 600, NQ: 10, Dim: 16, K: 5,
		Clusters: 6, ClusterStd: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig()
	cfg.Search.NProbe = 256 // probe everything: exact
	coll, err := NewCollection(cfg, ds.Metric, ds.Dim, len(ds.Vectors))
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	if _, err := coll.Insert(ds.Vectors); err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range ds.Queries {
		res, err := coll.Search(q, ds.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r := ds.Recall(qi, res); r < 0.999 {
			t.Fatalf("query %d recall = %v with full probing", qi, r)
		}
	}
}

func TestMeasureWallClock(t *testing.T) {
	ds, err := workload.Load(workload.Spec{
		Name: "wallclock", N: 800, NQ: 20, Dim: 16, K: 5,
		Clusters: 8, ClusterStd: 0.5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig()
	res, err := MeasureWallClock(ds, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.QPS <= 0 {
		t.Fatalf("wall-clock QPS = %v", res.QPS)
	}
	if res.Recall <= 0 || res.Recall > 1 {
		t.Fatalf("wall-clock recall = %v", res.Recall)
	}
	if res.P99 < res.P50 {
		t.Fatalf("P99 %v below P50 %v", res.P99, res.P50)
	}
	if res.Queries != 40 {
		t.Fatalf("served %d queries, want 40", res.Queries)
	}
	// One load path: the measured instance is the one Evaluate scores.
	if want := Evaluate(ds, cfg).Recall; res.Recall != want {
		t.Fatalf("wall-clock recall %v, Evaluate's %v", res.Recall, want)
	}
}

func TestDeleteFromGrowing(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(30, 8, 7)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := coll.Delete([]int64{ids[5]})
	if err != nil || n != 1 {
		t.Fatalf("Delete = %d, %v", n, err)
	}
	res, err := coll.Search(vecs[5], 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == ids[5] {
			t.Fatal("deleted id returned from search")
		}
	}
	// Growing data is compacted immediately.
	if st := coll.Stats(); st.GrowingRows != 29 {
		t.Fatalf("growing rows = %d, want 29", st.GrowingRows)
	}
}

func TestDeleteFromSealed(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	vecs := randVecs(300, 8, 8)
	ids, err := coll.Insert(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := coll.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := coll.Delete(ids[:10]); err != nil {
		t.Fatal(err)
	}
	if coll.Stats().Tombstones != 10 {
		t.Fatalf("Tombstones = %d", coll.Stats().Tombstones)
	}
	for probe := 0; probe < 10; probe++ {
		res, err := coll.Search(vecs[probe], 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == ids[probe] {
				t.Fatalf("tombstoned sealed id %d returned", ids[probe])
			}
		}
		if len(res) != 5 {
			t.Fatalf("tombstones cost result slots: got %d results", len(res))
		}
	}
}

func TestDeleteIdempotentAndBounds(t *testing.T) {
	coll, err := NewCollection(liveConfig(), linalg.L2, 8, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	ids, err := coll.Insert(randVecs(10, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := coll.Delete([]int64{ids[0], ids[0], -5, 9999}); n != 1 {
		t.Fatalf("Delete counted %d, want 1 (dups and unknown ids ignored)", n)
	}
	if n, _ := coll.Delete([]int64{ids[0]}); n != 0 {
		t.Fatalf("re-delete counted %d, want 0", n)
	}
}

// TestOverflowingVectorsRefused: rows with components ±3e19 (finite, but
// with L2 distances of +Inf and IP scores of ±Inf between them) are
// refused under L2 and IP — the whole batch, before anything is applied
// or logged — and as queries; under Angular they are normalised and
// accepted.
func TestOverflowingVectorsRefused(t *testing.T) {
	big := [][]float32{{1, 1, 1, 1}, {3e19, 1e19, 0, 0}, {-3e19, 0, 3e19, 0}}
	for _, m := range []linalg.Metric{linalg.L2, linalg.InnerProduct, linalg.Angular} {
		coll, err := OpenDurable(t.TempDir(), durableConfig(index.Flat), m, 4, 100)
		if err != nil {
			t.Fatal(err)
		}
		_, insErr := coll.Insert(big)
		_, qErr := coll.SearchBatch([][]float32{{1, 1, 1, 1}, big[2]}, 2, nil)
		st := coll.Stats()
		coll.Close()
		if m == linalg.Angular {
			if insErr != nil || qErr != nil || st.Rows != 3 {
				t.Fatalf("%v: insert %v, search %v, %d rows; want all three rows accepted", m, insErr, qErr, st.Rows)
			}
			continue
		}
		if insErr == nil || qErr == nil {
			t.Fatalf("%v: an overflowing row was accepted (insert %v, search %v)", m, insErr, qErr)
		}
		if st.Rows != 0 || st.WALLastLSN != 0 {
			t.Fatalf("%v: a refused batch left %d rows and WAL head %d", m, st.Rows, st.WALLastLSN)
		}
	}
}

// TestNonFiniteVectorsRefused: a NaN or ±Inf component is refused in an
// inserted row, rejecting its whole batch before anything is applied or
// logged, and in a query. At one time the NaN row was stored and, at NaN
// distance from everything, pushed a true neighbour out of an exact
// search's top 2.
func TestNonFiniteVectorsRefused(t *testing.T) {
	cfg := durableConfig(index.Flat)
	coll, err := OpenDurable(t.TempDir(), cfg, linalg.L2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	rows := [][]float32{{0, 0, 0, 0}, {1, 1, 1, 1}, {nan, 0, 0, 0}, {2, 2, 2, 2}}
	for _, batch := range [][][]float32{rows, {{0, 0, -inf, 0}}} {
		if ids, err := coll.Insert(batch); err == nil {
			t.Fatalf("insert of a non-finite row accepted: ids %v", ids)
		}
	}
	if st := coll.Stats(); st.Rows != 0 || st.WALLastLSN != 0 {
		t.Fatalf("a refused batch left %d rows and WAL head %d", st.Rows, st.WALLastLSN)
	}
	for i, row := range rows {
		if _, err := coll.Insert([][]float32{row}); (err != nil) != (i == 2) {
			t.Fatalf("insert %v: %v", row, err)
		}
	}
	res, err := coll.Search([]float32{0, 0, 0, 0}, 2, nil)
	if err != nil || len(res) != 2 || res[0].ID != 0 || res[1].ID != 1 {
		t.Fatalf("k=2 search at the origin = %+v, %v; want ids 0 and 1", res, err)
	}
	for _, q := range [][]float32{{nan, 0, 0, 0}, {0, inf, 0, 0}, {0, 0, 0, -inf}} {
		if res, err := coll.Search(q, 2, nil); err == nil {
			t.Fatalf("search for %v accepted: %+v", q, res)
		}
		if res, err := coll.SearchBatch([][]float32{{0, 0, 0, 0}, q}, 2, nil); err == nil {
			t.Fatalf("batch holding %v accepted: %+v", q, res)
		}
	}
}
