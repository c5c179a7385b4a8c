package index

import "vdtuner/internal/linalg"

// rerankCells is SCANN's payload, approximating Milvus' SCANN index: the
// posting lists are scored in a quantized domain (SQ8 codes standing in
// for SCANN's anisotropic quantization), and the best reorder_k candidates
// are re-ranked exactly against the retained raw vectors. Codes and raw
// vectors are both grouped cell-major, so stage 1 streams contiguous byte
// ranges and stage 2 re-ranks by grouped row. The stage-1 steps (prepare,
// scan, unit) are sq8Cells'.
type rerankCells struct {
	*sq8Cells
	exact linalg.Metric  // the index metric, which the re-rank scores under
	rows  *linalg.Matrix // grouped raw vectors kept for re-ranking
}

func newRerankCells(m linalg.Metric, workers int) *rerankCells {
	return &rerankCells{sq8Cells: newSQ8Cells(m, workers), exact: m}
}

func (c *rerankCells) train(store *linalg.Matrix, order []int32) (Stats, error) {
	c.rows = gatherRows(store, order)
	return c.sq8Cells.train(store, order)
}

func (c *rerankCells) bytes() int64 {
	if c.rows == nil {
		return 0
	}
	return c.rows.Bytes() + c.sq8Cells.bytes()
}

func (c *rerankCells) raw() *linalg.Matrix { return c.rows }

// rerank gathers the stage-1 survivors in s.neighbors into the contiguous
// s.gath arena and scores them exactly with one blocked kernel call,
// leaving candidate ci's distance in s.dists[ci]. Gathered rows are exact
// copies, so each output is bitwise equal to a per-row linalg.Distance.
func (c *rerankCells) rerank(q []float32, s *searchScratch) {
	dim := c.rows.Dim()
	n := len(s.neighbors)
	s.gath = grow(s.gath, n*dim)
	for ci, nb := range s.neighbors {
		copy(s.gath[ci*dim:(ci+1)*dim], c.rows.Row(int(nb.ID)))
	}
	s.dists = grow(s.dists, n)
	linalg.DistanceBlock(c.exact, q, s.gath[:n*dim], s.dists)
}

// replay is SCANN's replayFunc: per query, select the reorder_k stage-1
// survivors by grouped row in probe order and re-rank them exactly through
// the blocked float kernel — per query nothing depends on the tile width.
// Stage 1 keys on grouped rows and excludes nothing, so its width is
// floored at k plus the collector's excluded ids: the re-rank still finds
// k live candidates when every excluded id sits among the best. Excluded
// ids are dropped in the re-ranked top-k.
func (c *rerankCells) replay(x *ivf, queries [][]float32, probes []int32, nprobe, k int, p SearchParams, s *searchScratch, tops []*linalg.TopK) Stats {
	var reranked int64
	for qi, q := range queries {
		excl := tops[qi].Excluded()
		stage1 := s.stage1.Reset(max(p.ReorderK, k+len(excl)))
		for pi := 0; pi < nprobe; pi++ {
			slot := qi*nprobe + pi
			lo, hi := x.coarse.cellRange(probes[slot])
			if lo == hi {
				continue
			}
			o := s.mregion[slot]
			for i := int32(0); i < hi-lo; i++ {
				stage1.Push(int64(lo+i), s.mbuf[o+i])
			}
		}
		s.neighbors = stage1.AppendResults(s.neighbors[:0])
		c.rerank(q, s)
		top := s.top.Reset(k).Exclude(excl)
		for ci, nb := range s.neighbors {
			top.Push(x.ids[int(nb.ID)], s.dists[ci])
		}
		reranked += int64(len(s.neighbors))
		s.offer(top, tops[qi])
	}
	return Stats{DistComps: reranked}
}
