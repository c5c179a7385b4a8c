package index

import (
	"sync"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// searchScratch is the reusable per-query working state of every index's
// hot path. One scratch serves one query at a time; buffers grow to the
// high-water mark of the queries they serve and are then reused, so a
// steady-state Search performs no heap allocations beyond the
// caller-visible result slice. Scratches are pooled per index (see
// scratchPool) and threaded through SearchBatch's chunk workers, giving
// each worker goroutine a private scratch for its whole run.
type searchScratch struct {
	// visited is the epoch-stamped visited set of the HNSW beam search:
	// node i is visited this query iff visited[i] == epoch. Bumping epoch
	// clears the set in O(1); the array is only re-zeroed on the (every
	// ~4 billion queries) epoch wrap.
	visited []uint32
	epoch   uint32
	// frontier is the HNSW beam's sorted candidate queue; fresh the nodes
	// one expansion step found unvisited, scored together into dists.
	frontier []hnswCand
	fresh    []int32
	// beamOut receives searchLayer's (node, dist) results.
	beamOut []linalg.Neighbor
	// eps is the entry-point buffer for the layer-0 beam.
	eps []int32
	// top is the primary result collector; stage1 the secondary one
	// (HNSW beam, SCANN quantized stage).
	top    linalg.TopK
	stage1 linalg.TopK
	// dists receives blocked-kernel distance outputs (centroid scans,
	// posting-list scans).
	dists []float32
	// adc is the flattened PQ lookup table: m*ksub subspace distances.
	adc []float32
	// probe holds the selected IVF probe order; probeD the paired
	// centroid distances during selection.
	probe  []int32
	probeD []float32
	// neighbors is a transient neighbor buffer (SCANN stage-1 results).
	neighbors []linalg.Neighbor
	// res is the reusable result buffer of SearchInto: the probe's top-k
	// lands here before being offered to the caller's collector, so the
	// scatter-gather path materializes no per-probe slices.
	res []linalg.Neighbor

	// Multi-query state (SearchMultiInto). mdists is the Q×ncells coarse
	// distance matrix; mprobe the flat Q×nprobe probe table; mregion maps
	// each (query, probe-slot) to its offset in mbuf, the materialized
	// per-slot distance regions of the shared posting-list scans; mcnt and
	// mfill are the cell→prober counting-sort arrays and ment the inverted
	// entries (global probe-slot ids, cell-major); mouts and mqrows are the
	// gathered output/query views handed to the scatter kernel.
	mdists  []float32
	mbuf    []float32
	mouts   [][]float32
	mqrows  [][]float32
	mprobe  []int32
	mregion []int32
	mcnt    []int32
	mfill   []int32
	ment    []int32

	// Quantized-scan state. resid is the single-query SQ8 residual
	// (q - min); mres the flat Q×dim residual arena of the multi path.
	// madc is the flat Q×(m·ksub) ADC table arena of the multi-query PQ
	// scan. gath is the SCANN re-rank gather arena: one query's stage-1
	// survivors copied contiguous so stage 2 is one blocked kernel call.
	resid []float32
	mres  []float32
	madc  []float32
	gath  []float32
}

// hnswCand is one beam-search candidate: a node and its distance to the
// query.
type hnswCand struct {
	node int32
	d    float32
}

// beginVisit prepares the visited set for one traversal over n nodes and
// returns the epoch stamp to mark nodes with.
func (s *searchScratch) beginVisit(n int) uint32 {
	if cap(s.visited) < n {
		s.visited = make([]uint32, n)
		s.epoch = 0
	}
	s.visited = s.visited[:n]
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps survive, re-zero once
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	return s.epoch
}

// f32Buf returns a length-n float32 buffer, growing buf's capacity only at
// the high-water mark.
func f32Buf(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// i32Buf returns a length-n int32 buffer, growing at the high-water mark.
func i32Buf(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// f32sBuf returns a length-n slice-of-slices buffer, growing at the
// high-water mark (entries are overwritten by the caller).
func f32sBuf(buf [][]float32, n int) [][]float32 {
	if cap(buf) < n {
		return make([][]float32, n)
	}
	return buf[:n]
}

// scratchPool pools searchScratch values for one index. The zero value is
// ready to use. Get/Put of pointer values never allocate once the pool is
// warm, so single-query Search is allocation-free at steady state and
// SearchBatch checks out one scratch per worker.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get() *searchScratch {
	if s, ok := sp.p.Get().(*searchScratch); ok {
		return s
	}
	return &searchScratch{}
}

func (sp *scratchPool) put(s *searchScratch) { sp.p.Put(s) }

// searcher is the scratch-aware face every index implements: searchWith is
// Search with all transient state drawn from s and the result appended to
// dst (which may be nil; the caller-visible slice of Search is exactly one
// append onto a nil dst).
type searcher interface {
	Index
	pool() *scratchPool
	searchWith(q []float32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor
}

// searchPooled implements Index.Search on top of searchWith: check a
// scratch out of the index's pool for the duration of one query.
func searchPooled(x searcher, q []float32, k int, p SearchParams, st *Stats) []linalg.Neighbor {
	sp := x.pool()
	s := sp.get()
	res := x.searchWith(q, k, p, st, s, nil)
	sp.put(s)
	return res
}

// searchIntoPooled implements Index.SearchInto on top of searchWith: the
// probe's top-k lands in the scratch's reusable result buffer and is
// offered to the caller-owned collector, so a steady-state probe performs
// no heap allocations at all.
func searchIntoPooled(x searcher, q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	sp := x.pool()
	s := sp.get()
	s.res = x.searchWith(q, k, p, st, s, s.res[:0])
	for _, n := range s.res {
		top.Push(n.ID, n.Dist)
	}
	sp.put(s)
}

// searchMultiSerial is the default SearchMultiInto: per-query probes in
// query order. Graph-traversal indexes (HNSW, and AUTOINDEX delegating to
// it) route here — their access pattern is query-dependent, so there is no
// shared arena streaming to exploit.
func searchMultiSerial(x Index, queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	for i, q := range queries {
		x.SearchInto(q, k, p, st, tops[i])
	}
}

// searchBatch is the shared SearchBatch implementation: every index type's
// search is a read-only probe of an immutable built structure, so the batch
// fans queries over a worker pool. Each worker goroutine owns one pooled
// scratch for the whole batch, and each query charges its own private Stats
// slot; the slots are merged in query order at the end, so the accumulated
// counts are exactly those of sequential Searches (integer sums are
// order-independent), regardless of worker count.
func searchBatch(x searcher, queries [][]float32, k int, p SearchParams, st *Stats) [][]linalg.Neighbor {
	out := make([][]linalg.Neighbor, len(queries))
	if len(queries) == 0 {
		return out
	}
	per := make([]Stats, len(queries))
	sp := x.pool()
	scratches := make([]*searchScratch, parallel.WorkerCount(p.Workers, len(queries)))
	parallel.WorkerParallel(p.Workers, len(queries), func(w, qi int) {
		s := scratches[w]
		if s == nil {
			s = sp.get()
			scratches[w] = s
		}
		out[qi] = x.searchWith(queries[qi], k, p, &per[qi], s, nil)
	})
	for _, s := range scratches {
		if s != nil {
			sp.put(s)
		}
	}
	if st != nil {
		for i := range per {
			st.Add(per[i])
		}
	}
	return out
}
