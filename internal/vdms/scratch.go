package vdms

import (
	"sync/atomic"

	"vdtuner/internal/index"
	"vdtuner/internal/linalg"
)

// grow returns s resized to n elements, reusing its array when it is large
// enough (holding whatever the last use left: callers overwrite or clear).
// Every pooled buffer below grows to its high-water mark through it.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

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

// ensureMulti sizes the multi-query tile state for a qn-query tile at k
// results per query, keeping every warmed buffer.
func (ps *probeScratch) ensureMulti(qn, k int) {
	if qn > len(ps.mtops) {
		mtops := make([]linalg.TopK, qn)
		copy(mtops, ps.mtops) // keep the warmed heap arrays
		ps.mtops = mtops
	}
	ps.mtopPtr = grow(ps.mtopPtr, qn)
	ps.mouts = grow(ps.mouts, qn)
	ps.moutBuf = grow(ps.moutBuf, qn*k)
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
	g.cells = grow(g.cells, cells*k)
	g.cellLen = grow(g.cellLen, cells)
	g.stats = grow(g.stats, cells)
	clear(g.stats)
	g.pending = grow(g.pending, tiles)
	for i := range g.pending {
		g.pending[i].Store(int32(s))
	}
	return g
}

func (c *Collection) putGather(g *gatherScratch) { c.gatherPool.Put(g) }

// partition is the router's one batch split — Insert, Delete and every
// stage of a migration go through it: ids, with their vectors when the
// batch carries any, grouped by owning shard, batch order kept inside every
// shard. The routing hash runs once per row (count, prefix-sum, fill) and
// the per-shard views are carved out of flat arenas that grow to the
// high-water mark, so a pooled partition allocates nothing at steady state.
// Nothing here outlives the call that split — shards copy rows into their
// arenas and the WAL frames its own bytes — so the buffers are reusable.
type partition struct {
	owner   []uint8
	cur     []int
	idsBuf  []int64
	vecsBuf [][]float32
	// ids[s] and vecs[s] are shard s's sub-batch (vecs[s] is nil for a
	// batch without vectors).
	ids  [][]int64
	vecs [][][]float32
}

// split partitions the batch across a set of `shards` shards by shardFor.
// vecs is nil for a batch of bare ids (deletes).
func (p *partition) split(ids []int64, vecs [][]float32, shards int) {
	n := len(ids)
	p.owner, p.idsBuf, p.vecsBuf = grow(p.owner, n), grow(p.idsBuf, n), grow(p.vecsBuf, n)
	p.cur, p.ids, p.vecs = grow(p.cur, shards), grow(p.ids, shards), grow(p.vecs, shards)
	clear(p.cur)
	for i, id := range ids {
		s := shardFor(id, shards)
		p.owner[i] = uint8(s)
		p.cur[s]++
	}
	off := 0
	for s, cnt := range p.cur {
		p.cur[s] = off
		off += cnt
	}
	for i, id := range ids {
		at := p.cur[p.owner[i]]
		p.idsBuf[at] = id
		if vecs != nil {
			p.vecsBuf[at] = vecs[i]
		}
		p.cur[p.owner[i]] = at + 1
	}
	lo := 0
	for s, hi := range p.cur { // cur[s] is now one past shard s's run
		p.ids[s], p.vecs[s] = p.idsBuf[lo:hi], nil
		if vecs != nil {
			p.vecs[s] = p.vecsBuf[lo:hi]
		}
		lo = hi
	}
}

func (c *Collection) getPartition() *partition {
	if p, _ := c.partPool.Get().(*partition); p != nil {
		return p
	}
	return &partition{}
}

// putPartition returns p to the pool, cleared of what would pin the
// caller's last batch.
func (c *Collection) putPartition(p *partition) {
	clear(p.vecsBuf[:cap(p.vecsBuf)])
	c.partPool.Put(p)
}
