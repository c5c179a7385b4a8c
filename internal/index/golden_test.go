package index

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"vdtuner/internal/linalg"
)

// hnswGolden pins the HNSW build at the commit that took the scalar
// distance loop off the build path: the graph hash (levels, entry,
// maxLevel and every links[node][layer], in order) and the build Stats
// recorded at the parent commit, per (M, metric). The engine turns build
// DistComps into simulated build seconds, so a changed sort permutation,
// a tie broken the other way, or one charge more or less moves every
// tuning trajectory; each of them changes a value here.
var hnswGolden = map[string]struct {
	graph uint64
	comps int64
}{
	"M4/L2":       {0xb5b63708b10cc25e, 842068},
	"M4/IP":       {0xe38225fbf813d65c, 2311185},
	"M4/Angular":  {0xe38225fbf813d65c, 2311185},
	"M16/L2":      {0xef5b296c1b555a81, 6090473},
	"M16/IP":      {0xe1e1b1f488d65b5c, 10280284},
	"M16/Angular": {0xe1e1b1f488d65b5c, 10280284},
	"M48/L2":      {0x3bd7e7ac793a1c19, 39046799},
	"M48/IP":      {0x28d5b17bae449404, 52417082},
	"M48/Angular": {0x28d5b17bae449404, 52417082},
}

// goldenCorpus is 2 000 clustered 30-d vectors (30 = 7 quads + a tail of
// 2, so both kernel loops run), rescaled off the unit sphere so the three
// metrics rank differently, in which every tenth row repeats an earlier
// one: duplicates give the pruning sort and the selection heuristic exact
// distance ties to break.
func goldenCorpus(t testing.TB) ([][]float32, []int64) {
	vecs, ids, _, _ := testData(t, 2000, 1, 30, 1, 4242)
	for i, v := range vecs {
		linalg.Scale(v, 0.5+float32(i%7)/4)
	}
	for i := 10; i < len(vecs); i += 10 {
		vecs[i] = vecs[i/2]
	}
	return vecs, ids
}

func hashHNSW(h *hnsw) uint64 {
	f := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.Write(b[:])
	}
	put(int64(h.entry))
	put(int64(h.maxLevel))
	for _, l := range h.levels {
		put(int64(l))
	}
	for _, perNode := range h.links {
		put(int64(len(perNode)))
		for _, layer := range perNode {
			put(int64(len(layer)))
			for _, nb := range layer {
				put(int64(nb))
			}
		}
	}
	return f.Sum64()
}

func TestHNSWBuildGolden(t *testing.T) {
	vecs, ids := goldenCorpus(t)
	for _, m := range []int{4, 16, 48} {
		for _, metric := range []linalg.Metric{linalg.L2, linalg.InnerProduct, linalg.Angular} {
			name := fmt.Sprintf("M%d/%v", m, metric)
			t.Run(name, func(t *testing.T) {
				want, ok := hnswGolden[name]
				if !ok {
					t.Fatalf("no golden value for %s", name)
				}
				for _, workers := range []int{1, 4} {
					idx, err := New(HNSW, metric, 30, BuildParams{HNSWM: m, EfConstruction: 64, Seed: 7, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
						t.Fatal(err)
					}
					st := idx.BuildStats()
					if st != (Stats{DistComps: st.DistComps}) {
						t.Fatalf("workers=%d: build charged more than DistComps: %+v", workers, st)
					}
					if got := hashHNSW(idx.(*hnsw)); got != want.graph || st.DistComps != want.comps {
						t.Errorf("workers=%d: graph %#x comps %d, want %#x %d", workers, got, st.DistComps, want.graph, want.comps)
					}
				}
			})
		}
	}
}

// TestHNSWRepairGolden covers the step no stock build reaches: pruning
// rarely orphans a node, so the test cuts every layer-0 edge into three
// nodes of a built graph and pins what repairConnectivity relinks and
// charges (values recorded at the parent commit, as above).
func TestHNSWRepairGolden(t *testing.T) {
	vecs, ids := goldenCorpus(t)
	idx, err := New(HNSW, linalg.L2, 30, BuildParams{HNSWM: 4, EfConstruction: 64, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	h := idx.(*hnsw)
	orphan := map[int32]bool{17: true, 503: true, 1999: true}
	for v := range h.links {
		kept := h.links[v][0][:0]
		for _, nb := range h.links[v][0] {
			if !orphan[nb] {
				kept = append(kept, nb)
			}
		}
		h.links[v][0] = kept
	}
	before := h.work.DistComps
	h.repairConnectivity()
	const wantGraph, wantComps = 0x8c6eb56f3e393278, 5994
	if got, comps := hashHNSW(h), h.work.DistComps-before; got != wantGraph || comps != wantComps {
		t.Errorf("graph %#x comps %d, want %#x %d", got, comps, uint64(wantGraph), wantComps)
	}
}
