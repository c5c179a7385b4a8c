package index

import (
	"reflect"
	"testing"

	"vdtuner/internal/linalg"
)

// parallelCases covers every index type whose build has parallel phases.
var parallelCases = []struct {
	name string
	typ  Type
	bp   BuildParams
	sp   SearchParams
}{
	{"HNSW", HNSW, BuildParams{HNSWM: 12, EfConstruction: 80}, SearchParams{Ef: 64}},
	{"IVF_FLAT", IVFFlat, BuildParams{NList: 32}, SearchParams{NProbe: 8}},
	{"IVF_PQ", IVFPQ, BuildParams{NList: 16, M: 8, NBits: 6}, SearchParams{NProbe: 8}},
	{"IVF_SQ8", IVFSQ8, BuildParams{NList: 32}, SearchParams{NProbe: 8}},
	{"SCANN", SCANN, BuildParams{NList: 32}, SearchParams{NProbe: 8, ReorderK: 40}},
	{"AUTOINDEX", AutoIndex, BuildParams{}, SearchParams{}},
}

func buildWithWorkers(t *testing.T, typ Type, bp BuildParams, workers int, vecs [][]float32, ids []int64) Index {
	t.Helper()
	bp.Seed = 99
	bp.Workers = workers
	idx, err := New(typ, linalg.L2, len(vecs[0]), bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestBuildWorkerCountInvariant is the determinism contract of the
// parallel build path: for a fixed seed, workers=1 (the reference
// sequential schedule) and workers=N produce identical structures,
// identical search results, and identical build Stats.
func TestBuildWorkerCountInvariant(t *testing.T) {
	vecs, ids, queries, _ := testData(t, 1500, 20, 32, 10, 77)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			seq := buildWithWorkers(t, tc.typ, tc.bp, 1, vecs, ids)
			for _, workers := range []int{2, 8} {
				par := buildWithWorkers(t, tc.typ, tc.bp, workers, vecs, ids)
				if seq.BuildStats() != par.BuildStats() {
					t.Fatalf("workers=%d: build stats %+v != sequential %+v",
						workers, par.BuildStats(), seq.BuildStats())
				}
				if seq.MemoryBytes() != par.MemoryBytes() {
					t.Fatalf("workers=%d: memory %d != sequential %d",
						workers, par.MemoryBytes(), seq.MemoryBytes())
				}
				for qi, q := range queries {
					var sSeq, sPar Stats
					rSeq := Search(seq, q, 10, tc.sp, &sSeq)
					rPar := Search(par, q, 10, tc.sp, &sPar)
					if !reflect.DeepEqual(rSeq, rPar) {
						t.Fatalf("workers=%d query %d: results differ\nseq: %v\npar: %v",
							workers, qi, rSeq, rPar)
					}
					if sSeq != sPar {
						t.Fatalf("workers=%d query %d: search stats %+v != %+v",
							workers, qi, sPar, sSeq)
					}
				}
			}
		})
	}
}

// TestHNSWGraphIdenticalAcrossWorkers compares the raw graph structure,
// not just observable search behavior: a stock build; one whose lists are
// so short against its beam (M=2, efConstruction=200) that nearly every
// reverse link overflows and prunes, the work the concurrent bucket replay
// carries; and a corpus with fewer nodes than reverse-link buckets. Under
// -race the workers=4 and 8 builds are also the detector's view of that
// replay.
func TestHNSWGraphIdenticalAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		bp   BuildParams
	}{
		{"stock", 1200, BuildParams{HNSWM: 8, EfConstruction: 64}},
		{"prune-heavy", 1200, BuildParams{HNSWM: 2, EfConstruction: 200}},
		{"fewer-nodes-than-buckets", hnswLinkBuckets - 24, BuildParams{HNSWM: 8, EfConstruction: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vecs, ids, _, _ := testData(t, tc.n, 1, 16, 1, 78)
			seq := buildWithWorkers(t, HNSW, tc.bp, 1, vecs, ids).(*hnsw)
			for _, workers := range []int{4, 8} {
				par := buildWithWorkers(t, HNSW, tc.bp, workers, vecs, ids).(*hnsw)
				if seq.entry != par.entry || seq.maxLevel != par.maxLevel {
					t.Fatalf("workers=%d: entry/maxLevel differ: (%d,%d) vs (%d,%d)",
						workers, seq.entry, seq.maxLevel, par.entry, par.maxLevel)
				}
				if !reflect.DeepEqual(seq.levels, par.levels) {
					t.Fatalf("workers=%d: level assignments differ", workers)
				}
				if !reflect.DeepEqual(seq.links, par.links) {
					t.Fatalf("workers=%d: adjacency lists differ from workers=1", workers)
				}
				if seq.work != par.work {
					t.Fatalf("workers=%d: build stats %+v != workers=1 %+v", workers, par.work, seq.work)
				}
			}
		})
	}
}

// TestSearchBatchMatchesSequentialSearch is batch ≡ sequential at the
// index layer, for every index type with a parallel build, built at the
// default worker count: one SearchMultiInto tile over the whole (ragged,
// 25-query) batch returns the per-query results, and exactly the summed
// Stats, of sequential Search calls.
func TestSearchBatchMatchesSequentialSearch(t *testing.T) {
	vecs, ids, queries, _ := testData(t, 1000, 25, 16, 5, 79)
	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			idx := buildWithWorkers(t, tc.typ, tc.bp, 0, vecs, ids)
			var want, got Stats
			wantRes := make([][]linalg.Neighbor, len(queries))
			for qi, q := range queries {
				wantRes[qi] = Search(idx, q, 5, tc.sp, &want)
			}
			if gotRes := searchTile(idx, queries, 5, tc.sp, &got); !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatal("batch results differ from sequential")
			}
			if got != want {
				t.Fatalf("batch stats %+v, sequential %+v", got, want)
			}
		})
	}
}

// TestArenaLayoutInvariant is the bit-identity contract of the flat-arena
// refactor: building from a standalone packed arena and from an offset
// row-range view of a larger arena (how the engine hands segments to
// Build) must produce identical search results and Stats for every index
// type, at workers=1 and workers=N. The vectors are what matter, never
// their placement.
func TestArenaLayoutInvariant(t *testing.T) {
	vecs, ids, queries, _ := testData(t, 1400, 15, 32, 10, 82)
	// An arena with a foreign prefix and suffix; the corpus is the
	// interior view.
	padded := make([][]float32, 0, len(vecs)+2)
	pad := make([]float32, 32)
	for i := range pad {
		pad[i] = 123.5
	}
	padded = append(padded, pad)
	padded = append(padded, vecs...)
	padded = append(padded, pad)
	arena := linalg.MatrixFromRows(padded)
	view := arena.Slice(1, 1+len(vecs))

	for _, tc := range parallelCases {
		t.Run(tc.name, func(t *testing.T) {
			standalone := buildWithWorkers(t, tc.typ, tc.bp, 1, vecs, ids)
			viewBuilt, err := New(tc.typ, linalg.L2, 32, withSeed(tc.bp, 99, 8))
			if err != nil {
				t.Fatal(err)
			}
			if err := viewBuilt.Build(view, ids); err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				var sA, sB Stats
				rA := Search(standalone, q, 10, tc.sp, &sA)
				rB := Search(viewBuilt, q, 10, tc.sp, &sB)
				if !reflect.DeepEqual(rA, rB) {
					t.Fatalf("query %d: arena-view build differs from standalone build\nstandalone: %v\nview:       %v", qi, rA, rB)
				}
				if sA != sB {
					t.Fatalf("query %d: stats differ: %+v vs %+v", qi, sA, sB)
				}
			}
			batch := searchTile(viewBuilt, queries, 10, tc.sp, nil)
			for qi, q := range queries {
				if !reflect.DeepEqual(batch[qi], Search(standalone, q, 10, tc.sp, nil)) {
					t.Fatalf("query %d: batch over the workers=8 view build differs from workers=1 standalone", qi)
				}
			}
		})
	}
}

func withSeed(bp BuildParams, seed int64, workers int) BuildParams {
	bp.Seed = seed
	bp.Workers = workers
	return bp
}
