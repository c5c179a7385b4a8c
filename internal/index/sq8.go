package index

import (
	"fmt"

	"vdtuner/internal/linalg"
	"vdtuner/internal/parallel"
)

// sq8Chunk is the fixed row-chunk size of the parallel SQ8 phases; chunk
// boundaries depend only on the corpus size, keeping training and encoding
// worker-count-invariant.
const sq8Chunk = 512

// sq8Codec quantizes vectors to one byte per dimension with a per-dimension
// affine transform (Milvus' SQ8).
type sq8Codec struct {
	dim   int
	min   []float32
	scale []float32 // (max-min)/255 per dim; 0 for constant dims
}

func trainSQ8(store *linalg.Matrix, dim, workers int) *sq8Codec {
	c := &sq8Codec{
		dim:   dim,
		min:   make([]float32, dim),
		scale: make([]float32, dim),
	}
	// Per-chunk min/max, merged in chunk order (min/max are exact, so the
	// merge order only matters for determinism of NaN handling).
	n := store.Rows()
	nChunks := parallel.NumChunks(n, sq8Chunk)
	mins := make([][]float32, nChunks)
	maxs := make([][]float32, nChunks)
	parallel.ForRanges(workers, n, sq8Chunk, func(ch, lo, hi int) {
		mn := make([]float32, dim)
		mx := make([]float32, dim)
		copy(mn, store.Row(lo))
		copy(mx, store.Row(lo))
		for i := lo + 1; i < hi; i++ {
			for j, x := range store.Row(i) {
				if x < mn[j] {
					mn[j] = x
				}
				if x > mx[j] {
					mx[j] = x
				}
			}
		}
		mins[ch], maxs[ch] = mn, mx
	})
	max := make([]float32, dim)
	copy(c.min, mins[0])
	copy(max, maxs[0])
	for ch := 1; ch < nChunks; ch++ {
		for j := 0; j < dim; j++ {
			if mins[ch][j] < c.min[j] {
				c.min[j] = mins[ch][j]
			}
			if maxs[ch][j] > max[j] {
				max[j] = maxs[ch][j]
			}
		}
	}
	for j := 0; j < dim; j++ {
		c.scale[j] = (max[j] - c.min[j]) / 255
	}
	return c
}

// encodeGrouped encodes every row of store into one flat code arena in
// grouped order: codes[g*dim:(g+1)*dim] encodes store.Row(order[g]). Rows
// fan across the worker pool; each grouped slot is written by exactly one
// chunk, so the pass is race-free and deterministic.
func (c *sq8Codec) encodeGrouped(store *linalg.Matrix, order []int32, workers int) []byte {
	codes := make([]byte, len(order)*c.dim)
	parallel.ForRanges(workers, len(order), sq8Chunk, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			c.encode(store.Row(int(order[g])), codes[g*c.dim:(g+1)*c.dim])
		}
	})
	return codes
}

func (c *sq8Codec) encode(v []float32, dst []byte) {
	for j, x := range v {
		if c.scale[j] == 0 {
			dst[j] = 0
			continue
		}
		q := (x - c.min[j]) / c.scale[j]
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		dst[j] = byte(q + 0.5)
	}
}

// scanMetric maps the index metric onto the SQ8 kernel family: negative
// dot for InnerProduct, reconstruction L2 for everything else (Angular
// inputs are normalized upstream, so squared L2 ranks identically).
func (c *sq8Codec) scanMetric(m linalg.Metric) linalg.Metric {
	if m == linalg.InnerProduct {
		return linalg.InnerProduct
	}
	return linalg.L2
}

// dist computes the approximate distance between query q and one code row:
// the scalar form of the blocked kernel contract, bit-identical to a
// one-row DistanceSQ8Block call.
func (c *sq8Codec) dist(m linalg.Metric, q []float32, code []byte) float32 {
	return linalg.SQ8Distance(c.scanMetric(m), q, c.min, c.scale, code)
}

func (c *sq8Codec) bytes() int64 {
	return 2 * int64(c.dim) * float32Bytes // min/scale
}

// scanProbed is the quantized cell scan IVF_SQ8 and SCANN's stage 1 share:
// after invertProbes, every probed cell's contiguous code range streams
// once through the multi-query SQ8 decode kernels for all of its probers,
// filling each (query, probe-slot) region of s.mbuf. The per-query affine
// constant is hoisted up front: the L2 kernels take the residual q - min,
// the dot kernels the raw query.
func (c *sq8Codec) scanProbed(coarse *ivfCoarse, codes []byte, queries [][]float32, nprobe int, s *searchScratch) {
	dim := c.dim
	sm := c.scanMetric(coarse.metric)
	rows := queries
	if sm == linalg.L2 {
		s.mres = f32Buf(s.mres, len(queries)*dim)
		s.mrows = f32sBuf(s.mrows, len(queries))
		for qi, q := range queries {
			s.mrows[qi] = s.mres[qi*dim : (qi+1)*dim]
			linalg.SQ8Residual(q, c.min, s.mrows[qi])
		}
		rows = s.mrows
	}
	for cell := 0; cell < coarse.cents.Rows(); cell++ {
		lo, hi, qrows, outs := coarse.probers(cell, nprobe, rows, s)
		if len(qrows) > 0 {
			linalg.DistanceSQ8MultiScatter(sm, qrows, c.min, c.scale, codes[int(lo)*dim:int(hi)*dim], outs)
		}
	}
}

// ivfSQ8 is IVF with SQ8-compressed posting lists: the probed cells are
// scanned in the quantized domain (cheaper per candidate, small recall
// loss), and raw vectors are not retained, matching Milvus' IVF_SQ8.
// Codes live in one flat arena grouped cell-major, so each probe streams
// a contiguous byte range.
type ivfSQ8 struct {
	coarse  *ivfCoarse
	codec   *sq8Codec
	codes   []byte // grouped, store.Rows()*dim bytes
	ids     []int64
	scratch scratchPool
}

func newIVFSQ8(m linalg.Metric, dim int, p BuildParams) (*ivfSQ8, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
	c, err := newIVFCoarse(m, dim, nlist, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	return &ivfSQ8{coarse: c}, nil
}

func (x *ivfSQ8) Type() Type { return IVFSQ8 }

func (x *ivfSQ8) Build(store *linalg.Matrix, ids []int64) error {
	if store.Rows() != len(ids) {
		return fmt.Errorf("ivf_sq8: %d vectors but %d ids", store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	x.codec = trainSQ8(store, x.coarse.dim, x.coarse.workers)
	x.codes = x.codec.encodeGrouped(store, order, x.coarse.workers)
	x.ids = gatherIDs(ids, order)
	// Encoding charges one code-domain pass over the data.
	x.coarse.buildWork.Add(Stats{CodeComps: int64(store.Rows())})
	return nil
}

func (x *ivfSQ8) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchOneInto(x, q, k, p, st, top)
}

// SearchMultiInto shares the byte-domain posting-list streaming across
// the query tile, the same three phases as IVF_FLAT's: batched coarse
// assignment, cell→prober inversion with each probed cell's code range
// decoded once per quad of probers (scanProbed), and the tile-width
// invariant per-query replay.
func (x *ivfSQ8) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	if len(x.codes) == 0 || k < 1 || len(queries) == 0 {
		return
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)
	scanned := x.coarse.invertProbes(probes, s)
	x.codec.scanProbed(x.coarse, x.codes, queries, nprobe, s)
	x.coarse.replayRegions(probes, nprobe, k, x.ids, s, tops)
	accumulate(st, Stats{CodeComps: int64(scanned)})
	x.scratch.put(s)
}

func (x *ivfSQ8) MemoryBytes() int64 {
	var codecBytes int64
	if x.codec != nil {
		codecBytes = x.codec.bytes()
	}
	return int64(len(x.codes)) + // 1 byte/dim codes
		x.coarse.centroidBytes() +
		codecBytes +
		int64(len(x.ids))*4 // grouped row ids
}

func (x *ivfSQ8) BuildStats() Stats { return x.coarse.buildWork }

func (x *ivfSQ8) StoreAdopted() bool { return false }
