package index

import (
	"fmt"

	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
)

// pqCells is IVF_PQ's payload, product quantization: vectors are split
// into m subspaces, each encoded by a 2^nbits-entry codebook, and probed
// cells are scanned with asymmetric distance computation (per-query lookup
// tables), matching Milvus' IVF_PQ. Distances are approximate; recall
// degrades as m shrinks or nbits shrinks, which is exactly the trade-off
// the tuner must learn.
//
// Layout: codes are one flat arena grouped cell-major (m entries per
// row), packed at the narrowest width the trained codebook allows —
// codes8 when ksubN ≤ 256 (the default nbits=8 and below), codes16
// otherwise; exactly one of the two is non-nil. Codebooks are one
// (m*ksub) x subDim arena whose subspace-s codeword c is row s*ksub+c, so
// the per-query ADC table build is m blocked kernel calls over contiguous
// codeword ranges; the table itself is one flat m*ksub []float32 drawn
// from the query scratch and scanned by the linalg PQScan kernels.
type pqCells struct {
	metric  linalg.Metric
	seed    int64
	workers int
	m       int // subquantizers; divides dim
	nbits   int // code width; codebook size is 1<<nbits
	subDim  int
	// books holds the m*ksubN codewords; row s*ksubN+c is codeword c of
	// subspace s.
	books *linalg.Matrix
	// ksubN is the actual per-subspace codebook size: 1<<nbits, clamped
	// down by the trainer when the corpus is smaller.
	ksubN   int
	codes8  []uint8  // grouped, m per row; nil when ksubN > 256
	codes16 []uint16 // grouped, m per row; nil when ksubN ≤ 256
}

func newPQCells(metric linalg.Metric, dim int, p BuildParams) *pqCells {
	m := p.M
	if m == 0 {
		m = 8
	}
	// m must divide dim; round down to the nearest divisor.
	for m > 1 && dim%m != 0 {
		m--
	}
	if m < 1 {
		m = 1
	}
	nbits := p.NBits
	if nbits == 0 {
		nbits = 8
	}
	if nbits < 4 {
		nbits = 4
	}
	if nbits > 12 {
		nbits = 12
	}
	return &pqCells{metric: metric, seed: p.Seed, workers: p.Workers, m: m, nbits: nbits, subDim: dim / m}
}

func (c *pqCells) train(store *linalg.Matrix, order []int32) (Stats, error) {
	n := store.Rows()
	ksub := 1 << c.nbits
	c.books = linalg.NewMatrix(c.subDim, c.m*ksub)
	assigns := make([][]int, c.m)
	for s := 0; s < c.m; s++ {
		lo, hi := s*c.subDim, (s+1)*c.subDim
		// The subspace view is strided (stride = dim), clustered without
		// copying the corpus.
		res, err := kmeans.Run(store.SubspaceView(lo, hi), kmeans.Config{
			K: ksub, Seed: c.seed + int64(s) + 1, SampleLimit: 8 * ksub,
			Workers: c.workers,
		})
		if err != nil {
			return Stats{}, fmt.Errorf("ivf_pq: codebook %d: %w", s, err)
		}
		// The trainer clamps K down on small corpora; every subspace
		// clusters the same row count, so the clamp is uniform.
		c.ksubN = res.Centroids.Rows()
		for w := 0; w < c.ksubN; w++ {
			c.books.AppendRow(res.Centroids.Row(w))
		}
		assigns[s] = res.Assign
	}
	// Pack at the narrowest width the trained codebook allows: one byte
	// per entry when every codeword index fits, halving code-arena
	// traffic on every scan at the default nbits=8.
	if c.ksubN <= 256 {
		c.codes8 = make([]uint8, n*c.m)
		for s, as := range assigns {
			for g, o := range order {
				c.codes8[g*c.m+s] = uint8(as[o])
			}
		}
	} else {
		c.codes16 = make([]uint16, n*c.m)
		for s, as := range assigns {
			for g, o := range order {
				c.codes16[g*c.m+s] = uint16(as[o])
			}
		}
	}
	// Codebook training cost in full-dimension units: the final assign
	// pass compares every row to every codeword in each of the m
	// subspaces, and each subspace comparison touches subDim = dim/m
	// dimensions — m * (n*ksubN) * (1/m) = n*ksubN full-dim equivalents.
	return Stats{DistComps: int64(n) * int64(c.ksubN), CodeComps: int64(n)}, nil
}

// prepare builds the flat ADC lookup tables: table qi's entry sub*ksub+w
// is the distance between query qi's subvector sub and codeword w,
// computed with one blocked multi-query kernel call per subspace over the
// contiguous codeword arena (the metric epilogue is fused in the kernel).
// Per query the work is m * ksub subspace distances = ksub full-dimension
// equivalents.
func (c *pqCells) prepare(queries [][]float32, st *Stats, s *searchScratch) [][]float32 {
	qn := len(queries)
	ksub := c.ksubN
	tab := c.m * ksub
	s.madc = grow(s.madc, qn*tab)
	books := c.books.Data()
	rowLen := ksub * c.subDim
	s.mqrows = grow(s.mqrows, qn)
	s.mouts = grow(s.mouts, qn)
	for sub := 0; sub < c.m; sub++ {
		for qi, q := range queries {
			s.mqrows[qi] = q[sub*c.subDim : (sub+1)*c.subDim]
			s.mouts[qi] = s.madc[qi*tab+sub*ksub : qi*tab+(sub+1)*ksub]
		}
		linalg.DistanceMultiScatter(c.metric, s.mqrows, books[sub*rowLen:(sub+1)*rowLen], s.mouts)
	}
	accumulate(st, Stats{DistComps: int64(qn) * int64(ksub)})
	s.mrows = grow(s.mrows, qn)
	for qi := range s.mrows {
		s.mrows[qi] = s.madc[qi*tab : (qi+1)*tab]
	}
	return s.mrows
}

// scan walks the cell's code range once for all of its probers with the
// unrolled PQScan kernels: each code row's entries load once per tile,
// not once per query.
func (c *pqCells) scan(lo, hi int32, tables, outs [][]float32) {
	if c.codes8 != nil {
		linalg.PQScan8Multi(tables, c.codes8[int(lo)*c.m:int(hi)*c.m], c.m, c.ksubN, outs)
	} else {
		linalg.PQScan16Multi(tables, c.codes16[int(lo)*c.m:int(hi)*c.m], c.m, c.ksubN, outs)
	}
}

// unit: one ADC table lookup per subquantizer.
func (c *pqCells) unit() Stats { return Stats{Lookups: int64(c.m)} }

func (c *pqCells) raw() *linalg.Matrix { return nil }

func (c *pqCells) bytes() int64 {
	if c.books == nil {
		return 0
	}
	// Codes at their actual packed width: 1 byte per entry in codes8,
	// 2 in codes16 (exactly one of the two is populated); books is exact,
	// m*ksubN rows (ksub may be clamped).
	return int64(len(c.codes8)) + 2*int64(len(c.codes16)) + c.books.Bytes()
}
