package index

import (
	"fmt"
	"math/rand"
	"testing"

	"vdtuner/internal/linalg"
)

// testData generates n unit vectors (angular-normalized, searched with L2,
// as the engine does) plus nq queries and exact ground truth.
func testData(t testing.TB, n, nq, dim, k int, seed int64) (vecs [][]float32, ids []int64, queries [][]float32, truth [][]int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Clustered data: ANN indexes behave realistically on clustered sets.
	nCenters := 16
	centers := make([][]float32, nCenters)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for j := range centers[c] {
			centers[c][j] = float32(rng.NormFloat64())
		}
	}
	gen := func() []float32 {
		c := centers[rng.Intn(nCenters)]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())*0.3
		}
		linalg.Normalize(v)
		return v
	}
	vecs = make([][]float32, n)
	ids = make([]int64, n)
	for i := range vecs {
		vecs[i] = gen()
		ids[i] = int64(i)
	}
	queries = make([][]float32, nq)
	truth = make([][]int64, nq)
	for qi := range queries {
		queries[qi] = gen()
		top := linalg.NewTopK(k)
		for i, v := range vecs {
			top.Push(ids[i], linalg.SquaredL2(queries[qi], v))
		}
		for _, nb := range top.Results() {
			truth[qi] = append(truth[qi], nb.ID)
		}
	}
	return vecs, ids, queries, truth
}

func recallOf(results []linalg.Neighbor, truth []int64) float64 {
	want := make(map[int64]bool, len(truth))
	for _, id := range truth {
		want[id] = true
	}
	hit := 0
	for _, r := range results {
		if want[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// pqPayload returns the PQ payload of an IVF_PQ index.
func pqPayload(t *testing.T, idx Index) *pqCells {
	t.Helper()
	pq, ok := idx.(*ivf).cells.(*pqCells)
	if !ok {
		t.Fatalf("payload is %T, want *pqCells", idx.(*ivf).cells)
	}
	return pq
}

func buildAndMeasure(t *testing.T, typ Type, bp BuildParams, sp SearchParams) (recall float64, work Stats, idx Index) {
	t.Helper()
	const k = 10
	vecs, ids, queries, truth := testData(t, 2000, 30, 32, k, 42)
	idx, err := New(typ, linalg.L2, 32, bp)
	if err != nil {
		t.Fatalf("New(%v): %v", typ, err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatalf("Build(%v): %v", typ, err)
	}
	var sum float64
	for qi, q := range queries {
		res := Search(idx, q, k, sp, &work)
		sum += recallOf(res, truth[qi])
	}
	return sum / float64(len(queries)), work, idx
}

func TestFlatIsExact(t *testing.T) {
	recall, work, _ := buildAndMeasure(t, Flat, BuildParams{}, SearchParams{})
	if recall != 1.0 {
		t.Fatalf("FLAT recall = %v, want 1.0", recall)
	}
	if work.DistComps != 2000*30 {
		t.Fatalf("FLAT work = %d distcomps, want %d", work.DistComps, 2000*30)
	}
}

func TestIVFFlatRecallGrowsWithNProbe(t *testing.T) {
	low, lowWork, _ := buildAndMeasure(t, IVFFlat, BuildParams{NList: 64, Seed: 1}, SearchParams{NProbe: 1})
	high, highWork, _ := buildAndMeasure(t, IVFFlat, BuildParams{NList: 64, Seed: 1}, SearchParams{NProbe: 32})
	if high < low {
		t.Fatalf("recall did not grow with nprobe: %v -> %v", low, high)
	}
	if high < 0.95 {
		t.Fatalf("IVF_FLAT nprobe=32/64 recall = %v, want >= 0.95", high)
	}
	if highWork.DistComps <= lowWork.DistComps {
		t.Fatalf("work did not grow with nprobe: %d -> %d", lowWork.DistComps, highWork.DistComps)
	}
}

func TestIVFFlatFullProbeIsExact(t *testing.T) {
	recall, _, _ := buildAndMeasure(t, IVFFlat, BuildParams{NList: 32, Seed: 2}, SearchParams{NProbe: 32})
	if recall != 1.0 {
		t.Fatalf("IVF_FLAT with nprobe=nlist recall = %v, want 1.0 (scans everything)", recall)
	}
}

func TestIVFSQ8Tradeoff(t *testing.T) {
	recall, work, idx := buildAndMeasure(t, IVFSQ8, BuildParams{NList: 64, Seed: 3}, SearchParams{NProbe: 16})
	if recall < 0.8 {
		t.Fatalf("IVF_SQ8 recall = %v, want >= 0.8", recall)
	}
	if work.CodeComps == 0 {
		t.Fatal("IVF_SQ8 reported no code-domain work")
	}
	flatIdx, _ := New(Flat, linalg.L2, 32, BuildParams{})
	vecs, ids, _, _ := testData(t, 2000, 1, 32, 1, 42)
	if err := flatIdx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	if idx.MemoryBytes() >= flatIdx.MemoryBytes() {
		t.Fatalf("SQ8 memory %d not smaller than raw %d", idx.MemoryBytes(), flatIdx.MemoryBytes())
	}
}

func TestIVFPQRecallGrowsWithNBits(t *testing.T) {
	low, _, lowIdx := buildAndMeasure(t, IVFPQ, BuildParams{NList: 32, M: 8, NBits: 4, Seed: 4}, SearchParams{NProbe: 16})
	high, _, highIdx := buildAndMeasure(t, IVFPQ, BuildParams{NList: 32, M: 8, NBits: 8, Seed: 4}, SearchParams{NProbe: 16})
	if high < low-0.05 {
		t.Fatalf("PQ recall did not grow with nbits: %v (4 bits) vs %v (8 bits)", low, high)
	}
	if lowIdx.MemoryBytes() > highIdx.MemoryBytes() {
		t.Fatalf("PQ memory shrank with more bits: %d vs %d", lowIdx.MemoryBytes(), highIdx.MemoryBytes())
	}
}

func TestIVFPQLookupAccounting(t *testing.T) {
	_, work, _ := buildAndMeasure(t, IVFPQ, BuildParams{NList: 32, M: 8, NBits: 6, Seed: 5}, SearchParams{NProbe: 8})
	if work.Lookups == 0 {
		t.Fatal("IVF_PQ reported no ADC lookups")
	}
}

func TestIVFPQRoundsMToDivisor(t *testing.T) {
	// dim=32, M=7 is not a divisor; constructor must round down to 4.
	idx, err := New(IVFPQ, linalg.L2, 32, BuildParams{NList: 8, M: 7, NBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	pq := pqPayload(t, idx)
	if 32%pq.m != 0 {
		t.Fatalf("m=%d does not divide 32", pq.m)
	}
}

func TestHNSWRecallGrowsWithEf(t *testing.T) {
	low, lowWork, _ := buildAndMeasure(t, HNSW, BuildParams{HNSWM: 16, EfConstruction: 100, Seed: 6}, SearchParams{Ef: 10})
	high, highWork, _ := buildAndMeasure(t, HNSW, BuildParams{HNSWM: 16, EfConstruction: 100, Seed: 6}, SearchParams{Ef: 200})
	if high < low {
		t.Fatalf("HNSW recall fell with ef: %v -> %v", low, high)
	}
	if high < 0.9 {
		t.Fatalf("HNSW ef=200 recall = %v, want >= 0.9", high)
	}
	if highWork.DistComps <= lowWork.DistComps {
		t.Fatalf("HNSW work did not grow with ef: %d -> %d", lowWork.DistComps, highWork.DistComps)
	}
}

func TestHNSWBeatsExhaustiveWork(t *testing.T) {
	_, work, _ := buildAndMeasure(t, HNSW, BuildParams{HNSWM: 16, EfConstruction: 100, Seed: 7}, SearchParams{Ef: 50})
	exhaustive := int64(2000 * 30)
	if work.DistComps >= exhaustive {
		t.Fatalf("HNSW did %d distcomps, exhaustive is %d — no speedup", work.DistComps, exhaustive)
	}
}

func TestSCANNReorderImprovesRecall(t *testing.T) {
	low, _, _ := buildAndMeasure(t, SCANN, BuildParams{NList: 64, Seed: 8}, SearchParams{NProbe: 16, ReorderK: 10})
	high, _, _ := buildAndMeasure(t, SCANN, BuildParams{NList: 64, Seed: 8}, SearchParams{NProbe: 16, ReorderK: 200})
	if high < low-0.02 {
		t.Fatalf("SCANN recall fell with reorder_k: %v -> %v", low, high)
	}
	if high < 0.85 {
		t.Fatalf("SCANN reorder=200 recall = %v, want >= 0.85", high)
	}
}

func TestSCANNMixesCodeAndExactWork(t *testing.T) {
	_, work, _ := buildAndMeasure(t, SCANN, BuildParams{NList: 64, Seed: 9}, SearchParams{NProbe: 8, ReorderK: 50})
	if work.CodeComps == 0 || work.DistComps == 0 {
		t.Fatalf("SCANN work = %+v, want both code and exact components", work)
	}
}

// TestIndexTypeTable holds the type table to its contract: every Type has
// exactly one row, names round-trip, and a row's constructor builds an
// index that answers with the row's Type. AUTOINDEX is the HNSW row with
// pinned parameters: neither the caller's graph parameters nor its search
// parameters change what it builds or returns.
func TestIndexTypeTable(t *testing.T) {
	all := AllTypes()
	if len(all) != int(numTypes) {
		t.Fatalf("AllTypes has %d entries, want %d", len(all), numTypes)
	}
	names := map[string]Type{}
	for i, typ := range all {
		if typ != Type(i) {
			t.Fatalf("AllTypes[%d] = %v", i, typ)
		}
		row := types[typ]
		if row.name == "" || row.new == nil {
			t.Fatalf("Type(%d) has no table row", i)
		}
		if prev, dup := names[row.name]; dup {
			t.Fatalf("%v and %v share the name %q", prev, typ, row.name)
		}
		names[row.name] = typ
		if got, err := ParseType(typ.String()); err != nil || got != typ {
			t.Errorf("ParseType(%q) = %v, %v", typ.String(), got, err)
		}
		if _, err := New(typ, linalg.L2, 16, BuildParams{}); err != nil {
			t.Fatalf("New(%v): %v", typ, err)
		}
	}
	for _, bad := range []Type{-1, numTypes} {
		if _, err := New(bad, linalg.L2, 16, BuildParams{}); err == nil {
			t.Errorf("New(%v) succeeded", bad)
		}
		if _, err := ParseType(bad.String()); err == nil {
			t.Errorf("ParseType(%q) succeeded", bad.String())
		}
	}

	t.Run("AutoIndexIgnoresParams", func(t *testing.T) {
		a, aWork, aIdx := buildAndMeasure(t, AutoIndex, BuildParams{Seed: 10}, SearchParams{})
		b, bWork, bIdx := buildAndMeasure(t, AutoIndex, BuildParams{Seed: 10, HNSWM: 4, EfConstruction: 8}, SearchParams{Ef: 999, NProbe: 999})
		if a != b || aWork != bWork {
			t.Fatalf("AUTOINDEX behaviour depends on params: recall %v vs %v, work %+v vs %+v", a, b, aWork, bWork)
		}
		if aIdx.BuildStats() != bIdx.BuildStats() || aIdx.MemoryBytes() != bIdx.MemoryBytes() {
			t.Fatalf("AUTOINDEX build depends on HNSWM/EfConstruction: %+v/%d vs %+v/%d",
				aIdx.BuildStats(), aIdx.MemoryBytes(), bIdx.BuildStats(), bIdx.MemoryBytes())
		}
		if a < 0.85 {
			t.Fatalf("AUTOINDEX recall = %v, want >= 0.85", a)
		}
		// The pinned row is stock HNSW at (autoM, autoEfCons, autoEf).
		h, hWork, hIdx := buildAndMeasure(t, HNSW, BuildParams{Seed: 10, HNSWM: autoM, EfConstruction: autoEfCons}, SearchParams{Ef: autoEf})
		if a != h || aWork != hWork || aIdx.BuildStats() != hIdx.BuildStats() {
			t.Fatalf("AUTOINDEX differs from HNSW at its pinned parameters")
		}
	})
}

func TestAllTypesReturnSortedResults(t *testing.T) {
	vecs, ids, queries, _ := testData(t, 500, 5, 16, 10, 11)
	for _, typ := range AllTypes() {
		idx, err := New(typ, linalg.L2, 16, BuildParams{NList: 16, M: 4, NBits: 6, HNSWM: 8, EfConstruction: 50, Seed: 11})
		if err != nil {
			t.Fatalf("New(%v): %v", typ, err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
			t.Fatalf("Build(%v): %v", typ, err)
		}
		for _, q := range queries {
			res := Search(idx, q, 10, SearchParams{NProbe: 8, Ef: 32, ReorderK: 20}, nil)
			for i := 1; i < len(res); i++ {
				if res[i].Dist < res[i-1].Dist {
					t.Fatalf("%v results not sorted: %v after %v", typ, res[i].Dist, res[i-1].Dist)
				}
			}
			seen := map[int64]bool{}
			for _, r := range res {
				if seen[r.ID] {
					t.Fatalf("%v returned duplicate id %d", typ, r.ID)
				}
				seen[r.ID] = true
			}
		}
	}
}

func TestAllTypesBuildTwiceFails(t *testing.T) {
	vecs, ids, _, _ := testData(t, 100, 1, 8, 1, 12)
	for _, typ := range AllTypes() {
		idx, err := New(typ, linalg.L2, 8, BuildParams{NList: 4, M: 2, NBits: 4, HNSWM: 4, EfConstruction: 16, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
			t.Fatalf("first Build(%v): %v", typ, err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err == nil {
			t.Fatalf("second Build(%v) did not fail", typ)
		}
	}
}

func TestAllTypesMismatchedIDs(t *testing.T) {
	vecs, _, _, _ := testData(t, 50, 1, 8, 1, 13)
	for _, typ := range AllTypes() {
		idx, err := New(typ, linalg.L2, 8, BuildParams{NList: 4, M: 2, NBits: 4, HNSWM: 4, EfConstruction: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), []int64{1, 2}); err == nil {
			t.Fatalf("Build(%v) accepted mismatched ids", typ)
		}
	}
}

func TestAllTypesMemoryPositive(t *testing.T) {
	vecs, ids, _, _ := testData(t, 300, 1, 16, 1, 14)
	for _, typ := range AllTypes() {
		idx, err := New(typ, linalg.L2, 16, BuildParams{NList: 8, M: 4, NBits: 4, HNSWM: 8, EfConstruction: 32, Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
			t.Fatal(err)
		}
		if idx.MemoryBytes() <= 0 {
			t.Fatalf("%v MemoryBytes = %d", typ, idx.MemoryBytes())
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for _, typ := range AllTypes() {
		got, err := ParseType(typ.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != typ {
			t.Fatalf("round trip %v -> %v", typ, got)
		}
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Fatal("ParseType accepted junk")
	}
}

func TestNewRejectsBadDim(t *testing.T) {
	if _, err := New(Flat, linalg.L2, 0, BuildParams{}); err == nil {
		t.Fatal("New accepted dim=0")
	}
}

func TestStatsAdd(t *testing.T) {
	var s Stats
	s.Add(Stats{DistComps: 1, CodeComps: 2, Lookups: 3})
	s.Add(Stats{DistComps: 10, CodeComps: 20, Lookups: 30})
	if s != (Stats{DistComps: 11, CodeComps: 22, Lookups: 33}) {
		t.Fatalf("Stats.Add = %+v", s)
	}
}

func TestScanStore(t *testing.T) {
	vecs, ids, queries, truth := testData(t, 200, 5, 8, 5, 15)
	var st Stats
	tops := make([]*linalg.TopK, len(queries))
	for i := range tops {
		tops[i] = linalg.NewTopK(5)
	}
	ScanStoreMultiInto(linalg.L2, queries, linalg.MatrixFromRows(vecs), ids, tops, &st)
	for qi := range queries {
		if r := recallOf(tops[qi].Results(), truth[qi]); r != 1.0 {
			t.Fatalf("ScanStoreMultiInto recall = %v, want 1.0", r)
		}
	}
	if st.DistComps != 200*5 {
		t.Fatalf("ScanStoreMultiInto work = %d, want %d", st.DistComps, 200*5)
	}
}

func TestInnerProductMetric(t *testing.T) {
	vecs, ids, _, _ := testData(t, 300, 1, 8, 1, 16)
	q := vecs[7]
	for _, typ := range []Type{Flat, IVFFlat, IVFSQ8, HNSW, SCANN} {
		idx, err := New(typ, linalg.InnerProduct, 8, BuildParams{NList: 8, HNSWM: 8, EfConstruction: 64, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
			t.Fatal(err)
		}
		res := Search(idx, q, 3, SearchParams{NProbe: 8, Ef: 64, ReorderK: 10}, nil)
		if len(res) == 0 {
			t.Fatalf("%v IP search returned nothing", typ)
		}
		found := false
		for _, r := range res {
			if r.ID == 7 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v IP search for a stored vector did not return it: %+v", typ, res)
		}
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	b.ReportAllocs()
	vecs, ids, queries, _ := testData(b, 5000, 10, 64, 10, 17)
	idx, err := New(HNSW, linalg.L2, 64, BuildParams{HNSWM: 16, EfConstruction: 128, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		b.Fatal(err)
	}
	top := linalg.NewTopK(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchInto(queries[i%len(queries)], 10, SearchParams{Ef: 64}, nil, top.Reset(10))
	}
}

// BenchmarkHNSWBuild is the build path's micro-baseline: one full build at
// the stock M=16/efConstruction=128 on 100-d rows, at the tuner's dataset
// size and at one sealed segment's.
func BenchmarkHNSWBuild(b *testing.B) {
	for _, n := range []int{1500, 15000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			vecs, ids, _, _ := testData(b, n, 1, 100, 1, 19)
			store := linalg.MatrixFromRows(vecs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx, err := New(HNSW, linalg.L2, 100, BuildParams{HNSWM: 16, EfConstruction: 128, Seed: 19})
				if err != nil {
					b.Fatal(err)
				}
				if err := idx.Build(store, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIVFFlatSearch is one Q=1 query at nprobe 8 over 5 000 64-d
// rows, at a coarse and a fine partition: at nlist 1024 a probe scans
// about five rows per cell, so per-tile bookkeeping that grows with nlist
// rather than with the probes shows.
func BenchmarkIVFFlatSearch(b *testing.B) {
	vecs, ids, queries, _ := testData(b, 5000, 10, 64, 10, 18)
	for _, nlist := range []int{32, 1024} {
		b.Run(fmt.Sprintf("nlist=%d", nlist), func(b *testing.B) {
			b.ReportAllocs()
			idx, err := New(IVFFlat, linalg.L2, 64, BuildParams{NList: nlist, Seed: 18})
			if err != nil {
				b.Fatal(err)
			}
			if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
				b.Fatal(err)
			}
			top := linalg.NewTopK(10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.SearchInto(queries[i%len(queries)], 10, SearchParams{NProbe: 8}, nil, top.Reset(10))
			}
		})
	}
}
