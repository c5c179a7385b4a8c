package index

import (
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

// sq8ScanMetric maps the index metric onto the SQ8 kernel family: negative
// dot for InnerProduct, reconstruction L2 for everything else (Angular
// inputs are normalized upstream, so squared L2 ranks identically).
func sq8ScanMetric(m linalg.Metric) linalg.Metric {
	if m == linalg.InnerProduct {
		return linalg.InnerProduct
	}
	return linalg.L2
}

// dist computes the approximate distance between query q and one code row:
// the scalar form of the blocked kernel contract, bit-identical to a
// one-row blocked scan.
func (c *sq8Codec) dist(m linalg.Metric, q []float32, code []byte) float32 {
	return linalg.SQ8Distance(sq8ScanMetric(m), q, c.min, c.scale, code)
}

func (c *sq8Codec) bytes() int64 {
	return 2 * int64(c.dim) * float32Bytes // min/scale
}

// sq8Cells is the SQ8 payload of IVF_SQ8 and of SCANN's stage 1: one byte
// per dimension in one flat arena grouped cell-major, so each probe
// streams a contiguous byte range through the multi-query SQ8 decode
// kernels. Scanning in the quantized domain is cheaper per candidate at a
// small recall loss; raw vectors are not retained (Milvus' IVF_SQ8).
type sq8Cells struct {
	metric  linalg.Metric // the kernel family: sq8ScanMetric of the index metric
	workers int
	codec   *sq8Codec
	codes   []byte // grouped, dim bytes per row
}

func newSQ8Cells(m linalg.Metric, workers int) *sq8Cells {
	return &sq8Cells{metric: sq8ScanMetric(m), workers: workers}
}

// train charges one code-domain pass over the data for the encoding.
func (c *sq8Cells) train(store *linalg.Matrix, order []int32) (Stats, error) {
	c.codec = trainSQ8(store, store.Dim(), c.workers)
	c.codes = c.codec.encodeGrouped(store, order, c.workers)
	return Stats{CodeComps: int64(len(order))}, nil
}

// prepare hoists the per-query affine constant: the L2 kernels take the
// residual q - min, the dot kernels the raw query.
func (c *sq8Cells) prepare(queries [][]float32, _ *Stats, s *searchScratch) [][]float32 {
	if c.metric != linalg.L2 {
		return queries
	}
	dim := c.codec.dim
	s.mres = grow(s.mres, len(queries)*dim)
	s.mrows = grow(s.mrows, len(queries))
	for qi, q := range queries {
		s.mrows[qi] = s.mres[qi*dim : (qi+1)*dim]
		linalg.SQ8Residual(q, c.codec.min, s.mrows[qi])
	}
	return s.mrows
}

func (c *sq8Cells) scan(lo, hi int32, qrows, outs [][]float32) {
	dim := c.codec.dim
	linalg.DistanceSQ8MultiScatter(c.metric, qrows, c.codec.min, c.codec.scale,
		c.codes[int(lo)*dim:int(hi)*dim], outs)
}

func (c *sq8Cells) unit() Stats { return Stats{CodeComps: 1} }

func (c *sq8Cells) raw() *linalg.Matrix { return nil }

func (c *sq8Cells) bytes() int64 {
	if c.codec == nil {
		return 0
	}
	return int64(len(c.codes)) + c.codec.bytes()
}
