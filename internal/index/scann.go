package index

import (
	"fmt"

	"vdtuner/internal/linalg"
)

// scann approximates Milvus' SCANN index: an IVF partition whose posting
// lists are scored in a quantized domain (SQ8 codes standing in for SCANN's
// anisotropic quantization), followed by exact re-ranking of the best
// reorder_k candidates against the retained raw vectors. Parameters:
// nlist (build); nprobe and reorder_k (search). Codes and raw vectors are
// both grouped cell-major, so stage 1 streams contiguous byte ranges and
// stage 2 re-ranks by grouped row.
type scann struct {
	coarse  *ivfCoarse
	codec   *sq8Codec
	codes   []byte         // grouped
	store   *linalg.Matrix // grouped raw vectors kept for re-ranking
	ids     []int64        // grouped
	scratch scratchPool
}

func newSCANN(m linalg.Metric, dim int, p BuildParams) (*scann, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
	c, err := newIVFCoarse(m, dim, nlist, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	return &scann{coarse: c}, nil
}

func (x *scann) Type() Type { return SCANN }

func (x *scann) Build(store *linalg.Matrix, ids []int64) error {
	if store.Rows() != len(ids) {
		return fmt.Errorf("scann: %d vectors but %d ids", store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	x.codec = trainSQ8(store, x.coarse.dim, x.coarse.workers)
	x.codes = x.codec.encodeGrouped(store, order, x.coarse.workers)
	x.store = gatherRows(store, order)
	x.ids = gatherIDs(ids, order)
	x.coarse.buildWork.Add(Stats{CodeComps: int64(store.Rows())})
	return nil
}

// rerank gathers the stage-1 survivors in s.neighbors into the contiguous
// s.gath arena and scores them exactly with one blocked kernel call,
// leaving candidate ci's distance in s.dists[ci]. Gathered rows are exact
// copies, so each output is bitwise equal to a per-row linalg.Distance.
func (x *scann) rerank(q []float32, s *searchScratch) {
	dim := x.coarse.dim
	n := len(s.neighbors)
	s.gath = f32Buf(s.gath, n*dim)
	for ci, c := range s.neighbors {
		copy(s.gath[ci*dim:(ci+1)*dim], x.store.Row(int(c.ID)))
	}
	s.dists = f32Buf(s.dists, n)
	linalg.DistanceBlock(x.coarse.metric, q, s.gath[:n*dim], s.dists)
}

func (x *scann) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchOneInto(x, q, k, p, st, top)
}

// SearchMultiInto shares the quantized stage-1 streaming across the query
// tile: batched coarse assignment, cell→prober inversion with each probed
// cell's code range decoded once per quad of probers (scanProbed), then a
// per-query replay that selects each query's reorder_k survivors by
// grouped row in probe order and re-ranks them exactly through the
// blocked float kernel — per query nothing depends on the tile width.
func (x *scann) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	if len(x.codes) == 0 || k < 1 || len(queries) == 0 {
		return
	}
	reorder := p.ReorderK
	if reorder < k {
		reorder = k
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)
	scanned := x.coarse.invertProbes(probes, s)
	x.codec.scanProbed(x.coarse, x.codes, queries, nprobe, s)

	var reranked int64
	for qi, q := range queries {
		stage1 := s.stage1.Reset(reorder)
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
		x.rerank(q, s)
		top := s.top.Reset(k)
		for ci, c := range s.neighbors {
			top.Push(x.ids[int(c.ID)], s.dists[ci])
		}
		reranked += int64(len(s.neighbors))
		s.res = top.AppendResults(s.res[:0])
		dst := tops[qi]
		for _, nb := range s.res {
			dst.Push(nb.ID, nb.Dist)
		}
	}
	accumulate(st, Stats{CodeComps: int64(scanned), DistComps: reranked})
	x.scratch.put(s)
}

func (x *scann) MemoryBytes() int64 {
	if x.store == nil {
		return 0
	}
	return x.store.Bytes() + // raw
		int64(len(x.codes)) + // codes
		x.coarse.centroidBytes() +
		x.codec.bytes() +
		int64(len(x.ids))*4
}

func (x *scann) BuildStats() Stats { return x.coarse.buildWork }

func (x *scann) StoreAdopted() bool { return false }
