package vdms

import (
	"sync/atomic"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// probeScratch is one scatter-gather worker's reusable state for probing a
// single shard with a query tile (searchMultiLocked). One worker owns one
// probeScratch for a whole fan-out and probes one (shard × query-tile)
// cell at a time, so a steady-state shard probe allocates nothing; the
// result rows a probe returns alias moutBuf and must be consumed (copied
// into the grid or the caller-visible slices) before the worker's next
// probe.
type probeScratch struct {
	// top is the collector the worker merges a finished tile's per-shard
	// grid cells through.
	top linalg.TopK
	// Per-query shard-level collectors every segment feeds (mtops values
	// own the warmed heap arrays, mtopPtr is the view the
	// Index.SearchMultiInto contract wants), the flat arena the drained
	// results land in, and the per-query views into it.
	mtops   []linalg.TopK
	mtopPtr []*linalg.TopK
	moutBuf []linalg.Neighbor
	mouts   [][]linalg.Neighbor
}

// ensureMulti sizes the multi-query tile state for a qn-query tile at
// fetch results per query, keeping every warmed buffer.
func (ps *probeScratch) ensureMulti(qn, fetch int) {
	if qn > len(ps.mtops) {
		mtops := make([]linalg.TopK, qn)
		copy(mtops, ps.mtops) // keep the warmed heap arrays
		ps.mtops = mtops
	}
	if qn > cap(ps.mtopPtr) {
		ps.mtopPtr = make([]*linalg.TopK, qn)
		ps.mouts = make([][]linalg.Neighbor, qn)
	}
	ps.mtopPtr = ps.mtopPtr[:qn]
	ps.mouts = ps.mouts[:qn]
	if cap(ps.moutBuf) < qn*fetch {
		ps.moutBuf = make([]linalg.Neighbor, qn*fetch)
	}
}

// gatherScratch is the working set of one scatter-gather call
// (SearchBatch): per-worker probe scratches, the (query × shard) result
// grid, per-cell stats slots, and the per-query completion counters that
// drive the pipelined merge. It is pooled on the Collection; all buffers
// grow to the high-water mark and are then reused, so the sharded read
// path re-enters the alloc gate.
type gatherScratch struct {
	// probes[w] is worker w's private probe state.
	probes []probeScratch
	// cells is the Q×S×k result arena: grid cell (qi, si) owns
	// cells[(si*Q+qi)*k : ...+k] and cellLen records how much of it the
	// shard actually filled.
	cells   []linalg.Neighbor
	cellLen []int32
	// stats[cell] is that probe's private work counter; the slots are
	// summed in fixed cell order at the end (integer sums are
	// order-independent, so the accounting equals sequential probing).
	stats []index.Stats
	// pending[ti] counts query tile ti's unfinished shard probes. The
	// worker that decrements it to zero merges every query row in the
	// tile; the atomic ops order that merge after every contributing
	// write.
	pending []atomic.Int32
}

// getGather checks a gather scratch out of the pool, sized for a q-query ×
// s-shard grid at k results per cell on the given worker count, with the
// queries grouped into `tiles` probe tiles. Stats slots are zeroed and pending
// counters armed per tile; the result grid needs no clearing (cellLen
// gates every read).
func (c *Collection) getGather(q, s, k, workers, tiles int) *gatherScratch {
	g, _ := c.gatherPool.Get().(*gatherScratch)
	if g == nil {
		g = &gatherScratch{}
	}
	if workers > len(g.probes) {
		probes := make([]probeScratch, workers)
		copy(probes, g.probes) // keep the warmed buffers
		g.probes = probes
	}
	cells := q * s
	if cap(g.cells) < cells*k {
		g.cells = make([]linalg.Neighbor, cells*k)
	}
	g.cells = g.cells[:cells*k]
	if cap(g.cellLen) < cells {
		g.cellLen = make([]int32, cells)
	}
	g.cellLen = g.cellLen[:cells]
	if cap(g.stats) < cells {
		g.stats = make([]index.Stats, cells)
	}
	g.stats = g.stats[:cells]
	for i := range g.stats {
		g.stats[i] = index.Stats{}
	}
	if cap(g.pending) < tiles {
		g.pending = make([]atomic.Int32, tiles)
	}
	g.pending = g.pending[:tiles]
	for i := range g.pending {
		g.pending[i].Store(int32(s))
	}
	return g
}

func (c *Collection) putGather(g *gatherScratch) { c.gatherPool.Put(g) }

// insertScratch is the pooled partition state of a routed Insert: the
// routing pass (owner, counts, cursors) and the per-shard sub-batch views
// carved out of two flat arenas. Nothing here survives the call — shards
// copy rows into their arenas and the WAL frames its own bytes — so the
// buffers are safe to reuse; the vector pointers are cleared on put so a
// pooled scratch does not pin the caller's last batch.
type insertScratch struct {
	owner    []uint8
	counts   []int
	offs     []int
	cur      []int
	idsBuf   []int64
	vecsBuf  [][]float32
	parts    [][]int64
	partVecs [][][]float32
	touched  []int
	errs     []error
}

// getInsert checks an insert scratch out of the pool, sized for an n-row
// batch across s shards. counts come back zeroed; everything else is
// length-set and overwritten by the partition passes.
func (c *Collection) getInsert(n, s int) *insertScratch {
	is, _ := c.insertPool.Get().(*insertScratch)
	if is == nil {
		is = &insertScratch{}
	}
	if cap(is.owner) < n {
		is.owner = make([]uint8, n)
		is.idsBuf = make([]int64, n)
		is.vecsBuf = make([][]float32, n)
	}
	is.owner = is.owner[:n]
	is.idsBuf = is.idsBuf[:n]
	is.vecsBuf = is.vecsBuf[:n]
	if cap(is.counts) < s {
		is.counts = make([]int, s)
		is.offs = make([]int, s)
		is.cur = make([]int, s)
		is.parts = make([][]int64, s)
		is.partVecs = make([][][]float32, s)
		is.touched = make([]int, 0, s)
		is.errs = make([]error, s)
	}
	is.counts = is.counts[:s]
	for i := range is.counts {
		is.counts[i] = 0
	}
	is.offs = is.offs[:s]
	is.cur = is.cur[:s]
	is.parts = is.parts[:s]
	is.partVecs = is.partVecs[:s]
	is.touched = is.touched[:0]
	is.errs = is.errs[:s]
	return is
}

func (c *Collection) putInsert(is *insertScratch) {
	for i := range is.vecsBuf {
		is.vecsBuf[i] = nil
	}
	for i := range is.errs {
		is.errs[i] = nil
	}
	c.insertPool.Put(is)
}
