package index

import (
	"math"
	"testing"

	"vdtuner/internal/linalg"
)

// neighborsBitEqual reports whether two result lists are bit-identical:
// same length, same IDs, and same float bit patterns (so -0 vs +0 or any
// rounding drift is caught, not masked by tolerance).
func neighborsBitEqual(a, b []linalg.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// bruteForce is the reference no index code shares: one linalg.Distance per
// stored row, offered in row order to a k-collector.
func bruteForce(m linalg.Metric, q []float32, vecs [][]float32, ids []int64, k int) []linalg.Neighbor {
	top := linalg.NewTopK(k)
	for i, v := range vecs {
		top.Push(ids[i], linalg.Distance(m, q, v))
	}
	return top.Results()
}

// searchTile answers qs as one SearchMultiInto tile into fresh collectors.
func searchTile(idx Index, qs [][]float32, k int, sp SearchParams, st *Stats) [][]linalg.Neighbor {
	tops := make([]*linalg.TopK, len(qs))
	for i := range tops {
		tops[i] = linalg.NewTopK(k)
	}
	idx.SearchMultiInto(qs, k, sp, st, tops)
	out := make([][]linalg.Neighbor, len(qs))
	for i := range tops {
		out[i] = tops[i].Results()
	}
	return out
}

// TestSearchMultiIntoMatchesSearchInto is tile-width invariance, the
// contract that lets one scan body serve every entry point: for every
// index type and metric, a query's results and Stats are bit-identical
// whether it is answered alone (SearchInto, the Q=1 tile) or inside a tile
// of 2, 7 or 64 queries (a pair, a quad plus a ragged remainder, sixteen
// quads), and the tile's Stats are exactly the per-query sum. The bits
// themselves are anchored outside the index code: the exhaustive
// configurations (FLAT, and IVF_FLAT probing every cell) must reproduce
// bruteForce bit for bit, and TestSearchGolden holds every type to the
// values recorded before the single-query bodies were deleted.
func TestSearchMultiIntoMatchesSearchInto(t *testing.T) {
	const k = 10
	sp := SearchParams{NProbe: 4, Ef: 32, ReorderK: 20}
	bp := BuildParams{NList: 16, M: 4, NBits: 6, HNSWM: 8, EfConstruction: 50, Seed: 21}
	vecs, ids, queries, _ := testData(t, 700, 64, 16, k, 21)
	for _, metric := range []linalg.Metric{linalg.L2, linalg.InnerProduct} {
		for _, typ := range AllTypes() {
			idx, err := New(typ, metric, 16, bp)
			if err != nil {
				t.Fatalf("New(%v): %v", typ, err)
			}
			if err := idx.Build(linalg.MatrixFromRows(vecs), ids); err != nil {
				t.Fatalf("Build(%v): %v", typ, err)
			}
			want := make([][]linalg.Neighbor, len(queries))
			per := make([]Stats, len(queries))
			for i, q := range queries {
				top := linalg.NewTopK(k)
				idx.SearchInto(q, k, sp, &per[i], top)
				want[i] = top.Results()
			}
			for _, qn := range []int{1, 2, 7, 64} {
				var stSeq, stMulti Stats
				for i := 0; i < qn; i++ {
					stSeq.Add(per[i])
				}
				got := searchTile(idx, queries[:qn], k, sp, &stMulti)
				if stMulti != stSeq {
					t.Errorf("%v metric=%v qn=%d: tile stats %+v != per-query sum %+v", typ, metric, qn, stMulti, stSeq)
				}
				for i := range got {
					if !neighborsBitEqual(got[i], want[i]) {
						t.Errorf("%v metric=%v qn=%d query %d: results depend on the tile width\n got %v\nwant %v", typ, metric, qn, i, got[i], want[i])
					}
				}
			}
			exact := typ == Flat
			if typ == IVFFlat {
				exact = true
				want = searchTile(idx, queries, k, SearchParams{NProbe: bp.NList}, nil)
			}
			if exact {
				for i, q := range queries {
					if ref := bruteForce(metric, q, vecs, ids, k); !neighborsBitEqual(want[i], ref) {
						t.Errorf("%v metric=%v query %d: exhaustive scan diverges from brute force\n got %v\nwant %v", typ, metric, i, want[i], ref)
					}
				}
			}
		}
	}
}

// TestScanStoreMultiIntoMatchesScanStoreInto covers the growing/sealing
// tail scan the engine uses outside any index: every tile width, over a
// ragged row count, reproduces bruteForce bit for bit (the same offer
// order, so ties included) and charges one distance per (query, row).
func TestScanStoreMultiIntoMatchesScanStoreInto(t *testing.T) {
	const k = 5
	vecs, ids, queries, _ := testData(t, 97, 64, 16, k, 22)
	store := linalg.MatrixFromRows(vecs)
	for _, metric := range []linalg.Metric{linalg.L2, linalg.InnerProduct} {
		for _, qn := range []int{1, 2, 7, 64} {
			var st Stats
			tops := make([]*linalg.TopK, qn)
			for i := range tops {
				tops[i] = linalg.NewTopK(k)
			}
			ScanStoreMultiInto(metric, queries[:qn], store, ids, tops, &st)
			if want := (Stats{DistComps: int64(qn) * int64(len(vecs))}); st != want {
				t.Errorf("metric=%v qn=%d: stats %+v, want %+v", metric, qn, st, want)
			}
			for i, q := range queries[:qn] {
				if got := tops[i].Results(); !neighborsBitEqual(got, bruteForce(metric, q, vecs, ids, k)) {
					t.Errorf("metric=%v qn=%d query %d: tail scan diverges from brute force", metric, qn, i)
				}
			}
		}
	}
}
