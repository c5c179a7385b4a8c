package index

import (
	"sync"

	"vdtuner/internal/linalg"
)

// searchScratch is the reusable working state of every index's hot path.
// One scratch serves one call (a query tile, or one HNSW query) at a time;
// buffers grow to the high-water mark of the calls they serve and are then
// reused, so a steady-state search performs no heap allocations. Scratches
// are pooled per index (see scratchPool).
type searchScratch struct {
	// visited is the epoch-stamped visited set of the HNSW beam search:
	// node i is visited this query iff visited[i] == epoch. Bumping epoch
	// clears the set in O(1); the array is only re-zeroed on the (every
	// ~4 billion queries) epoch wrap.
	visited []uint32
	epoch   uint32
	// frontier is the HNSW beam search's queue of unexpanded candidates,
	// in ascending-distance order and cut where a full beam's worst
	// passes; beam its ef-bounded max-heap of kept candidates, sorted in
	// place into searchLayer's result; fresh the nodes one expansion step
	// found unvisited, scored together into dists.
	frontier []hnswCand
	beam     []hnswCand
	fresh    []int32
	// eps is the entry-point buffer for the layer-0 beam.
	eps []int32
	// top is the primary result collector; stage1 SCANN's quantized-stage
	// collector.
	top    linalg.TopK
	stage1 linalg.TopK
	// dists receives blocked-kernel distance outputs (HNSW node
	// expansions, the SCANN re-rank).
	dists []float32
	// keys holds the IVF cell selection's packed (distance, cell) keys
	// (see cellKey); keysTmp is its partition buffer.
	keys    []uint64
	keysTmp []uint64
	// neighbors is a transient neighbor buffer (SCANN stage-1 results).
	neighbors []linalg.Neighbor
	// res is the reusable result buffer: a query's private top-k lands
	// here before being offered to the caller's collector, so the
	// scatter-gather path materializes no per-probe slices.
	res []linalg.Neighbor

	// Query-tile state (SearchMultiInto). mdists is the Q×ncells coarse
	// distance matrix; mprobe the flat Q×nprobe probe table; mregion maps
	// each (query, probe-slot) to its offset in mbuf, the materialized
	// per-slot distance regions of the shared posting-list scans; mcells
	// lists the probed cells, mcnt and mfill are the cell→prober
	// counting-sort arrays and ment the inverted entries (global probe-slot
	// ids, grouped by probed cell); mouts and mqrows are the
	// gathered output/query views handed to the scatter kernel, and mrows
	// the per-query kernel arguments they are gathered from when those are
	// not the queries themselves (SQ8 residuals, PQ ADC tables).
	mdists  []float32
	mbuf    []float32
	mouts   [][]float32
	mqrows  [][]float32
	mrows   [][]float32
	mprobe  []int32
	mregion []int32
	mcells  []int32
	mcnt    []int32
	mfill   []int32
	ment    []int32

	// Quantized-scan state. mres is the flat Q×dim SQ8 residual arena
	// (q - min per query); madc the flat Q×(m·ksub) ADC table arena of the
	// PQ scan. gath is the SCANN re-rank gather arena: one query's stage-1
	// survivors copied contiguous so stage 2 is one blocked kernel call.
	mres []float32
	madc []float32
	gath []float32
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

// offer pushes a query's private top-k, sorted ascending, into the
// caller's collector by way of s.res, so the scatter-gather path
// materializes no per-probe slices.
func (s *searchScratch) offer(top, dst *linalg.TopK) {
	s.res = top.AppendResults(s.res[:0])
	for _, nb := range s.res {
		dst.Push(nb.ID, nb.Dist)
	}
}

// grow returns s resized to n elements, reusing its array when it is large
// enough (holding whatever the last use left: callers overwrite). Every
// scratch buffer grows to its high-water mark through it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// scratchPool pools searchScratch values for one index. The zero value is
// ready to use. Get/Put of pointer values never allocate once the pool is
// warm, so searches are allocation-free at steady state.
type scratchPool struct{ p sync.Pool }

func (sp *scratchPool) get() *searchScratch {
	if s, ok := sp.p.Get().(*searchScratch); ok {
		return s
	}
	return &searchScratch{}
}

// put returns s to the pool, dropping the views it gathered of the
// caller's query slices and the exclusion set its private collector was
// reset from, so a pooled scratch pins neither.
func (sp *scratchPool) put(s *searchScratch) {
	clear(s.mqrows[:cap(s.mqrows)])
	clear(s.mrows[:cap(s.mrows)])
	s.top.Exclude(nil)
	sp.p.Put(s)
}

// oneSlot is the Q=1 tile SearchInto wraps its arguments in: pooled, so
// the single-query entry of a tiled index allocates nothing.
type oneSlot struct {
	q   [1][]float32
	top [1]*linalg.TopK
}

var oneSlotPool = sync.Pool{New: func() any { return new(oneSlot) }}

// searchOneInto is SearchInto for the tiled index types (FLAT and the IVF
// family): their only scan body is SearchMultiInto, run here at Q=1.
func searchOneInto(x Index, q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	o := oneSlotPool.Get().(*oneSlot)
	o.q[0], o.top[0] = q, top
	x.SearchMultiInto(o.q[:], k, p, st, o.top[:])
	o.q[0], o.top[0] = nil, nil
	oneSlotPool.Put(o)
}
