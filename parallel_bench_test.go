// Root-level benchmarks and checks for the engine's parallel build path:
// figure-scale index builds at workers=1 vs workers=NumCPU. The parallel
// contract (see package parallel) is that the two differ only in
// wall-clock time — structure, results, and Stats are identical — which is
// asserted here and measured by the benchmarks.
package vdtuner

import (
	"reflect"
	"testing"

	"vdtuner/internal/index"
	"vdtuner/internal/workload"
)

// figureScaleHNSW builds an HNSW index over the arxiv-like dataset (the
// Table V workload) with the given worker count.
func figureScaleHNSW(tb testing.TB, workers int) (index.Index, *workload.Dataset) {
	tb.Helper()
	ds, err := workload.Load(workload.ArxivLike(0.5))
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := index.New(index.HNSW, ds.Metric, ds.Dim, index.BuildParams{
		HNSWM: 16, EfConstruction: 96, Seed: 7, Workers: workers,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := idx.Build(ds.Store(), ds.IDs()); err != nil {
		tb.Fatal(err)
	}
	return idx, ds
}

// TestParallelBuildIdentical asserts the figure-scale build itself is
// worker-count-invariant end to end (graph, Stats, memory).
func TestParallelBuildIdentical(t *testing.T) {
	seqIdx, ds := figureScaleHNSW(t, 1)
	parIdx, _ := figureScaleHNSW(t, 8)
	if seqIdx.BuildStats() != parIdx.BuildStats() {
		t.Fatalf("build stats differ: %+v vs %+v", seqIdx.BuildStats(), parIdx.BuildStats())
	}
	if seqIdx.MemoryBytes() != parIdx.MemoryBytes() {
		t.Fatalf("memory differs: %d vs %d", seqIdx.MemoryBytes(), parIdx.MemoryBytes())
	}
	sp := index.SearchParams{Ef: 64}
	for qi, q := range ds.Queries {
		if !reflect.DeepEqual(index.Search(seqIdx, q, ds.K, sp, nil), index.Search(parIdx, q, ds.K, sp, nil)) {
			t.Fatalf("query %d: results differ between workers=1 and workers=8 builds", qi)
		}
	}
}

func BenchmarkHNSWBuildWorkers1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figureScaleHNSW(b, 1)
	}
}

func BenchmarkHNSWBuildWorkersNumCPU(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figureScaleHNSW(b, 0)
	}
}
