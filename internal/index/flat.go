package index

import (
	"fmt"

	"vdtuner/internal/linalg"
)

// flat is the exhaustive index: it scans every stored vector per query.
// It is exact (recall 1.0 by construction) and the slowest option on large
// segments, matching Milvus' FLAT. The scan streams the arena with the
// blocked kernels, one cache-friendly pass.
type flat struct {
	metric linalg.Metric
	dim    int
	store  *linalg.Matrix
	ids    []int64
	built  bool
}

func newFlat(m linalg.Metric, dim int) *flat {
	return &flat{metric: m, dim: dim}
}

func (f *flat) Build(store *linalg.Matrix, ids []int64) error {
	if f.built {
		return fmt.Errorf("flat: Build called twice")
	}
	if store.Rows() != len(ids) {
		return fmt.Errorf("flat: %d vectors but %d ids", store.Rows(), len(ids))
	}
	if store.Dim() != f.dim {
		return fmt.Errorf("flat: store has dim %d, want %d", store.Dim(), f.dim)
	}
	if !store.Packed() {
		return fmt.Errorf("flat: store must be packed (stride == dim)")
	}
	f.store = store
	f.ids = ids
	f.built = true
	return nil
}

func (f *flat) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchOneInto(f, q, k, p, st, top)
}

// SearchMultiInto offers every stored row directly to the collectors: the
// exhaustive scan needs no private top-k stage, so each query's collector
// sees the rows in storage order.
func (f *flat) SearchMultiInto(queries [][]float32, k int, _ SearchParams, st *Stats, tops []*linalg.TopK) {
	if k < 1 {
		return
	}
	ScanStoreMultiInto(f.metric, queries, f.store, f.ids, tops, st)
}

func (f *flat) MemoryBytes() int64 {
	if f.store == nil {
		return 0
	}
	return f.store.Bytes()
}

func (f *flat) BuildStats() Stats { return Stats{} }

// RawRows: flat retains the caller's arena as its only storage.
func (f *flat) RawRows() (*linalg.Matrix, []int64) { return f.store, f.ids }

func (f *flat) StoreAdopted() bool { return true }

// scanPool serves ScanStoreMultiInto: FLAT segments and the scans of
// growing/sealing segment tails share one package-level scratch pool.
var scanPool scratchPool

// ScanStoreMultiInto is the tiled exhaustive scan of an explicit arena,
// which must be packed (stride == dim): the arena is walked in
// cache-resident row tiles, each scored against every query by the
// multi-query blocked kernels (rows stream from memory once per tile of
// queries, not once per query), and each query's distances are offered to
// its collector in ascending row order — a sequence that does not depend
// on the tile width, so results and tie handling are bit-identical per
// query for any Q. It is FLAT's scan body and the engine's scan of growing
// and sealing segment tails; all scratch is pooled, so a steady-state call
// allocates nothing.
func ScanStoreMultiInto(m linalg.Metric, queries [][]float32, store *linalg.Matrix, ids []int64, tops []*linalg.TopK, st *Stats) {
	qn := len(queries)
	if store == nil || store.Rows() == 0 || qn == 0 {
		return
	}
	s := scanPool.get()
	n := store.Rows()
	dim := store.Dim()
	data := store.Data()
	tile := linalg.MultiRowTile(dim, qn)
	if tile > n {
		tile = n
	}
	s.mdists = grow(s.mdists, qn*tile)
	s.mouts = grow(s.mouts, qn)
	for lo := 0; lo < n; lo += tile {
		hi := lo + tile
		if hi > n {
			hi = n
		}
		tl := hi - lo
		for qi := 0; qi < qn; qi++ {
			s.mouts[qi] = s.mdists[qi*tile : qi*tile+tl]
		}
		linalg.DistanceMultiScatter(m, queries, data[lo*dim:hi*dim], s.mouts)
		for qi := 0; qi < qn; qi++ {
			tops[qi].PushBlock(ids[lo:hi], s.mouts[qi])
		}
	}
	accumulate(st, Stats{DistComps: int64(qn) * int64(n)})
	scanPool.put(s)
}
