package index

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
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

// searchGoldenCase is one (index type, metric) entry of
// testdata/search_golden.json: for each of the 16 goldenQueries, the
// result ids, the math.Float32bits of their distances, and the Stats the
// query charged. The file was recorded at the parent of the commit that
// made the tiled multi-query body the only scan body, through the
// single-query path that commit deleted (Index.SearchInto over each
// type's private single-query scan, into a fresh collector — what the
// engine ran per query), on SSE and on the purego kernels (identical). The deleted
// Index.Search returned its private top-k without the re-offer to a
// collector; on this corpus it differed from the recorded values only in
// the order of ids whose distances tie exactly (the duplicated rows).
type searchGoldenCase struct {
	Type   string     `json:"type"`
	Metric string     `json:"metric"`
	IDs    [][]int64  `json:"ids"`
	Bits   [][]uint32 `json:"bits"`
	Stats  []Stats    `json:"stats"`
}

const searchGoldenK = 10

var (
	searchGoldenBuild  = BuildParams{NList: 16, M: 5, NBits: 6, HNSWM: 8, EfConstruction: 50, Seed: 21}
	searchGoldenParams = SearchParams{NProbe: 4, Ef: 32, ReorderK: 20}
)

// goldenQueries is the fixed 16-query set of the search fixture: rescaled
// like the corpus, with two queries equal to stored rows — one of them the
// head of a chain of duplicates, so the top-k is full of exact ties.
func goldenQueries(t testing.TB, vecs [][]float32) [][]float32 {
	_, _, queries, _ := testData(t, 1, 16, 30, 1, 4343)
	for i, q := range queries {
		linalg.Scale(q, 0.5+float32(i%5)/4)
	}
	queries[3] = vecs[20]
	queries[11] = vecs[1234]
	return queries
}

// searchGoldenIndex builds the index of one fixture entry. Entries are
// named by index type; "IVF_PQ/nbits=9" is IVF_PQ with codes too wide for
// one byte.
func searchGoldenIndex(t *testing.T, c searchGoldenCase, vecs [][]float32, ids []int64) Index {
	t.Helper()
	bp := searchGoldenBuild
	name := c.Type
	if name == "IVF_PQ/nbits=9" {
		name, bp.NBits = "IVF_PQ", 9
	}
	typ, err := ParseType(name)
	if err != nil {
		t.Fatal(err)
	}
	metric := linalg.L2
	if c.Metric == linalg.InnerProduct.String() {
		metric = linalg.InnerProduct
	}
	idx, err := New(typ, metric, 30, bp)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
		t.Fatal(err)
	}
	if typ == IVFPQ {
		if wide := pqPayload(t, idx).codes16 != nil; wide != (bp.NBits == 9) {
			t.Fatalf("%s: nbits=%d packed codes16=%v", c.Type, bp.NBits, wide)
		}
	}
	return idx
}

// TestSearchGolden holds every search entry point to the fixture, bit for
// bit: the Search helper and SearchInto per query, and SearchMultiInto at
// tile widths 2, 7 and 16 (a pair, a quad plus a remainder of three, four
// quads), whose Stats must be exactly the sum of the recorded per-query
// ones.
func TestSearchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/search_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []searchGoldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	if want := 2 * (len(AllTypes()) + 1); len(cases) != want {
		t.Fatalf("fixture has %d entries, want %d", len(cases), want)
	}
	vecs, ids := goldenCorpus(t)
	queries := goldenQueries(t, vecs)
	for _, c := range cases {
		t.Run(c.Type+"/"+c.Metric, func(t *testing.T) {
			idx := searchGoldenIndex(t, c, vecs, ids)
			check := func(path string, qi int, got []linalg.Neighbor) {
				t.Helper()
				if len(got) != len(c.IDs[qi]) {
					t.Fatalf("%s query %d: %d results, fixture has %d", path, qi, len(got), len(c.IDs[qi]))
				}
				for i, nb := range got {
					if nb.ID != c.IDs[qi][i] || math.Float32bits(nb.Dist) != c.Bits[qi][i] {
						t.Fatalf("%s query %d result %d: (%d, %#x), fixture (%d, %#x)", path, qi, i,
							nb.ID, math.Float32bits(nb.Dist), c.IDs[qi][i], c.Bits[qi][i])
					}
				}
			}
			for qi, q := range queries {
				var st Stats
				check("Search", qi, Search(idx, q, searchGoldenK, searchGoldenParams, &st))
				if st != c.Stats[qi] {
					t.Fatalf("Search query %d: stats %+v, fixture %+v", qi, st, c.Stats[qi])
				}
				st = Stats{}
				top := linalg.NewTopK(searchGoldenK)
				idx.SearchInto(q, searchGoldenK, searchGoldenParams, &st, top)
				check("SearchInto", qi, top.Results())
				if st != c.Stats[qi] {
					t.Fatalf("SearchInto query %d: stats %+v, fixture %+v", qi, st, c.Stats[qi])
				}
			}
			for _, qn := range []int{2, 7, 16} {
				var st, want Stats
				tops := make([]*linalg.TopK, qn)
				for i := range tops {
					tops[i] = linalg.NewTopK(searchGoldenK)
					want.Add(c.Stats[i])
				}
				idx.SearchMultiInto(queries[:qn], searchGoldenK, searchGoldenParams, &st, tops)
				for qi := range tops {
					check(fmt.Sprintf("SearchMultiInto Q=%d", qn), qi, tops[qi].Results())
				}
				if st != want {
					t.Fatalf("SearchMultiInto Q=%d: stats %+v, fixture sum %+v", qn, st, want)
				}
			}
		})
	}
}
