package index

import "vdtuner/internal/linalg"

// autoIndex mirrors Milvus' AUTOINDEX: a fixed, reasonable default with no
// user-tunable parameters. It delegates to an HNSW graph with stock
// settings and ignores all search parameters, using a fixed beam width.
type autoIndex struct {
	inner *hnsw
}

// Fixed AUTOINDEX configuration, deliberately not exposed for tuning.
const (
	autoM      = 16
	autoEfCons = 128
	autoEf     = 64
)

func newAutoIndex(m linalg.Metric, dim int, p BuildParams) (*autoIndex, error) {
	inner, err := newHNSW(m, dim, BuildParams{HNSWM: autoM, EfConstruction: autoEfCons, Seed: p.Seed, Workers: p.Workers})
	if err != nil {
		return nil, err
	}
	return &autoIndex{inner: inner}, nil
}

func (a *autoIndex) Type() Type { return AutoIndex }

func (a *autoIndex) Build(store *linalg.Matrix, ids []int64) error {
	return a.inner.Build(store, ids)
}

// SearchInto delegates with the pinned beam width.
func (a *autoIndex) SearchInto(q []float32, k int, _ SearchParams, st *Stats, top *linalg.TopK) {
	a.inner.SearchInto(q, k, SearchParams{Ef: autoEf}, st, top)
}

// SearchMultiInto pins the beam like SearchInto and delegates to the inner
// index's multi-query path.
func (a *autoIndex) SearchMultiInto(queries [][]float32, k int, _ SearchParams, st *Stats, tops []*linalg.TopK) {
	a.inner.SearchMultiInto(queries, k, SearchParams{Ef: autoEf}, st, tops)
}

func (a *autoIndex) MemoryBytes() int64 { return a.inner.MemoryBytes() }

func (a *autoIndex) BuildStats() Stats { return a.inner.BuildStats() }

// StoreAdopted delegates: whatever the inner index did with the arena.
func (a *autoIndex) StoreAdopted() bool { return a.inner.StoreAdopted() }
