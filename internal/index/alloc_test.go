package index

import (
	"os"
	"testing"

	"vdtuner/internal/linalg"
)

// The alloc gates: steady-state SearchInto and SearchMultiInto must
// perform zero heap allocations on every index type, and the Search helper
// only its collector and the caller-visible result slice.
// These tests are the regression fence for the pooled-scratch query path;
// `make ci` runs them in strict mode (ALLOC_GATE_STRICT=1), where the
// under-race skip becomes a failure so the gate cannot silently vanish
// from the pipeline.

// allocGateSkip skips under -race (instrumentation allocates) unless
// strict mode demands the gate actually ran.
func allocGateSkip(t *testing.T) {
	t.Helper()
	if !raceEnabled {
		return
	}
	if os.Getenv("ALLOC_GATE_STRICT") != "" {
		t.Fatal("alloc-gate tests cannot run under -race, but ALLOC_GATE_STRICT is set; run them without -race")
	}
	t.Skip("alloc accounting is skewed by -race instrumentation")
}

// allocCases are the index types the issue gates. FLAT and SCANN ride
// along: they share the same scratch machinery.
var allocCases = []struct {
	name string
	typ  Type
	bp   BuildParams
	sp   SearchParams
}{
	{"HNSW", HNSW, BuildParams{HNSWM: 12, EfConstruction: 80, Seed: 31}, SearchParams{Ef: 48}},
	{"IVF_FLAT", IVFFlat, BuildParams{NList: 32, Seed: 31}, SearchParams{NProbe: 8}},
	{"IVF_PQ", IVFPQ, BuildParams{NList: 16, M: 8, NBits: 6, Seed: 31}, SearchParams{NProbe: 8}},
	{"IVF_PQ_wide", IVFPQ, BuildParams{NList: 16, M: 8, NBits: 9, Seed: 31}, SearchParams{NProbe: 8}},
	{"IVF_SQ8", IVFSQ8, BuildParams{NList: 32, Seed: 31}, SearchParams{NProbe: 8}},
	{"FLAT", Flat, BuildParams{}, SearchParams{}},
	{"SCANN", SCANN, BuildParams{NList: 32, Seed: 31}, SearchParams{NProbe: 8, ReorderK: 30}},
}

// buildAllocCase builds one allocCases index over the shared corpus.
func buildAllocCase(t *testing.T, typ Type, bp BuildParams, store *linalg.Matrix, ids []int64) Index {
	t.Helper()
	idx, err := New(typ, linalg.L2, 32, bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(store, ids); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestAllocGateSearch asserts the single-query entry is zero-alloc in
// steady state: SearchInto is the tiled body at Q=1 (or HNSW's traversal),
// its one-slot tile and all scratch pooled, feeding a collector the caller
// reuses — what the engine's shard probe does per query.
func TestAllocGateSearch(t *testing.T) {
	allocGateSkip(t)
	vecs, ids, queries, _ := testData(t, 1500, 16, 32, 10, 33)
	store := linalg.MatrixFromRows(vecs)
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildAllocCase(t, tc.typ, tc.bp, store, ids)
			top := linalg.NewTopK(10)
			// One run sweeps the whole query set, so the implicit warm-up
			// run reaches every buffer's high-water mark before counting.
			perRun := testing.AllocsPerRun(20, func() {
				for _, q := range queries {
					idx.SearchInto(q, 10, tc.sp, nil, top.Reset(10))
				}
			})
			if perRun > 0 {
				t.Fatalf("%s SearchInto allocates %.2f objects per %d queries, want 0 (pooled scratch)", tc.name, perRun, len(queries))
			}
		})
	}
}

// TestAllocGateSearchBatch asserts the budget of answering a batch into
// caller-visible slices with the Search helper: per query the collector,
// its heap array and the result slice, nothing from the scan itself. (The
// name predates the helper: it gated the index-level SearchBatch.)
func TestAllocGateSearchBatch(t *testing.T) {
	allocGateSkip(t)
	vecs, ids, queries, _ := testData(t, 1500, 16, 32, 10, 34)
	store := linalg.MatrixFromRows(vecs)
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildAllocCase(t, tc.typ, tc.bp, store, ids)
			perRun := testing.AllocsPerRun(20, func() {
				for _, q := range queries {
					Search(idx, q, 10, tc.sp, nil)
				}
			})
			if budget := float64(3 * len(queries)); perRun > budget {
				t.Fatalf("%s Search allocates %.1f objects per %d queries, want <= %.0f", tc.name, perRun, len(queries), budget)
			}
		})
	}
}

// TestAllocGateSearchMultiInto asserts the tiled multi-query path is
// zero-alloc in steady state: all tile scratch (distance matrices, probe
// tables, cell inversions) comes from the pooled searchScratch, so a warm
// SearchMultiInto call allocates nothing regardless of tile width.
func TestAllocGateSearchMultiInto(t *testing.T) {
	allocGateSkip(t)
	vecs, ids, queries, _ := testData(t, 1500, 16, 32, 10, 36)
	store := linalg.MatrixFromRows(vecs)
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildAllocCase(t, tc.typ, tc.bp, store, ids)
			tops := make([]*linalg.TopK, len(queries))
			for i := range tops {
				tops[i] = linalg.NewTopK(10)
			}
			perRun := testing.AllocsPerRun(20, func() {
				for i := range tops {
					tops[i].Reset(10)
				}
				idx.SearchMultiInto(queries, 10, tc.sp, nil, tops)
			})
			if perRun > 0 {
				t.Fatalf("%s SearchMultiInto allocates %.1f objects/batch, want 0 (pooled scratch)", tc.name, perRun)
			}
		})
	}
}

// TestScratchReuseIsDeterministic asserts that scratch pooling cannot leak
// state between queries: repeated Searches of the same query return
// bit-identical results, interleaved with other queries that dirty the
// pooled buffers.
func TestScratchReuseIsDeterministic(t *testing.T) {
	vecs, ids, queries, _ := testData(t, 1200, 12, 32, 10, 35)
	store := linalg.MatrixFromRows(vecs)
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildAllocCase(t, tc.typ, tc.bp, store, ids)
			var first [][]linalg.Neighbor
			for _, q := range queries {
				first = append(first, Search(idx, q, 10, tc.sp, nil))
			}
			for round := 0; round < 3; round++ {
				for qi, q := range queries {
					got := Search(idx, q, 10, tc.sp, nil)
					if len(got) != len(first[qi]) {
						t.Fatalf("round %d query %d: %d results, first run had %d", round, qi, len(got), len(first[qi]))
					}
					for i := range got {
						if got[i] != first[qi][i] {
							t.Fatalf("round %d query %d result %d: %+v != first run %+v",
								round, qi, i, got[i], first[qi][i])
						}
					}
				}
			}
		})
	}
}
