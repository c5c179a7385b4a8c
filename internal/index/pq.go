package index

import (
	"fmt"

	"vdtuner/internal/kmeans"
	"vdtuner/internal/linalg"
)

// ivfPQ is IVF with product quantization: vectors are split into m
// subspaces, each encoded by a 2^nbits-entry codebook, and probed cells are
// scanned with asymmetric distance computation (per-query lookup tables),
// matching Milvus' IVF_PQ. Distances are approximate; recall degrades as m
// shrinks or nbits shrinks, which is exactly the trade-off the tuner must
// learn.
//
// Layout: codes are one flat arena grouped cell-major (m entries per
// row), packed at the narrowest width the trained codebook allows —
// codes8 when ksubN ≤ 256 (the default nbits=8 and below), codes16
// otherwise; exactly one of the two is non-nil. Codebooks are one
// (m*ksub) x subDim arena whose subspace-s codeword c is row s*ksub+c, so
// the per-query ADC table build is m blocked kernel calls over contiguous
// codeword ranges; the table itself is one flat m*ksub []float32 drawn
// from the query scratch and scanned by the linalg PQScan kernels.
type ivfPQ struct {
	coarse *ivfCoarse
	m      int // subquantizers; divides dim
	nbits  int // code width; codebook size is 1<<nbits
	subDim int
	// books holds the m*ksubN codewords; row s*ksubN+c is codeword c of
	// subspace s.
	books *linalg.Matrix
	// ksubN is the actual per-subspace codebook size: 1<<nbits, clamped
	// down by the trainer when the corpus is smaller.
	ksubN   int
	codes8  []uint8  // grouped, m per row; nil when ksubN > 256
	codes16 []uint16 // grouped, m per row; nil when ksubN ≤ 256
	ids     []int64  // grouped
	scratch scratchPool
}

func newIVFPQ(metric linalg.Metric, dim int, p BuildParams) (*ivfPQ, error) {
	nlist := p.NList
	if nlist == 0 {
		nlist = 128
	}
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
	c, err := newIVFCoarse(metric, dim, nlist, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	return &ivfPQ{coarse: c, m: m, nbits: nbits, subDim: dim / m}, nil
}

func (x *ivfPQ) Type() Type { return IVFPQ }

func (x *ivfPQ) Build(store *linalg.Matrix, ids []int64) error {
	if store.Rows() != len(ids) {
		return fmt.Errorf("ivf_pq: %d vectors but %d ids", store.Rows(), len(ids))
	}
	order, err := x.coarse.train(store)
	if err != nil {
		return err
	}
	n := store.Rows()
	ksub := 1 << x.nbits
	x.books = linalg.NewMatrix(x.subDim, x.m*ksub)
	assigns := make([][]int, x.m)
	for s := 0; s < x.m; s++ {
		lo, hi := s*x.subDim, (s+1)*x.subDim
		// The subspace view is strided (stride = dim), clustered without
		// copying the corpus.
		res, err := kmeans.Run(store.SubspaceView(lo, hi), kmeans.Config{
			K: ksub, Seed: x.coarse.seed + int64(s) + 1, MaxIters: 10,
			SampleLimit: 8 * ksub, Workers: x.coarse.workers,
		})
		if err != nil {
			return fmt.Errorf("ivf_pq: codebook %d: %w", s, err)
		}
		// The trainer clamps K down on small corpora; every subspace
		// clusters the same row count, so the clamp is uniform.
		x.ksubN = res.Centroids.Rows()
		for c := 0; c < x.ksubN; c++ {
			x.books.AppendRow(res.Centroids.Row(c))
		}
		assigns[s] = res.Assign
	}
	// Pack at the narrowest width the trained codebook allows: one byte
	// per entry when every codeword index fits, halving code-arena
	// traffic on every scan at the default nbits=8.
	if x.ksubN <= 256 {
		x.codes8 = make([]uint8, n*x.m)
		for s, as := range assigns {
			for g, o := range order {
				x.codes8[g*x.m+s] = uint8(as[o])
			}
		}
	} else {
		x.codes16 = make([]uint16, n*x.m)
		for s, as := range assigns {
			for g, o := range order {
				x.codes16[g*x.m+s] = uint16(as[o])
			}
		}
	}
	x.ids = gatherIDs(ids, order)
	// Codebook training cost in full-dimension units: the final assign
	// pass compares every row to every codeword in each of the m
	// subspaces, and each subspace comparison touches subDim = dim/m
	// dimensions — m * (n*ksubN) * (1/m) = n*ksubN full-dim equivalents.
	x.coarse.buildWork.Add(Stats{
		DistComps: int64(n) * int64(x.ksubN),
		CodeComps: int64(n),
	})
	return nil
}

// codeLen reports the number of packed code entries (rows × m).
func (x *ivfPQ) codeLen() int {
	if x.codes8 != nil {
		return len(x.codes8)
	}
	return len(x.codes16)
}

func (x *ivfPQ) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchOneInto(x, q, k, p, st, top)
}

// SearchMultiInto shares the code-arena streaming across the query tile:
// batched coarse assignment, all Q ADC tables built into one flat arena,
// then the probe table is inverted cell→probers and each probed cell's
// code range is walked once for all of its probers by the unrolled PQScan
// kernels (each code row's entries load once per tile, not once per
// query), and the tile-width invariant per-query replay.
func (x *ivfPQ) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	qn := len(queries)
	if x.codeLen() == 0 || k < 1 || qn == 0 {
		return
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)

	// The flat ADC lookup tables: table qi's entry sub*ksub+c is the
	// distance between query qi's subvector sub and codeword c, computed
	// with one blocked multi-query kernel call per subspace over the
	// contiguous codeword arena (the metric epilogue is fused in the
	// kernel). Per query the work is m * ksub subspace distances = ksub
	// full-dimension equivalents.
	ksub := x.ksubN
	m := x.m
	tab := m * ksub
	s.madc = f32Buf(s.madc, qn*tab)
	books := x.books.Data()
	rowLen := ksub * x.subDim
	s.mqrows = f32sBuf(s.mqrows, qn)
	s.mouts = f32sBuf(s.mouts, qn)
	for sub := 0; sub < m; sub++ {
		for qi, q := range queries {
			s.mqrows[qi] = q[sub*x.subDim : (sub+1)*x.subDim]
			s.mouts[qi] = s.madc[qi*tab+sub*ksub : qi*tab+(sub+1)*ksub]
		}
		linalg.DistanceMultiScatter(x.coarse.metric, s.mqrows, books[sub*rowLen:(sub+1)*rowLen], s.mouts)
	}
	accumulate(st, Stats{DistComps: int64(qn) * int64(ksub)})
	s.mrows = f32sBuf(s.mrows, qn)
	for qi := range s.mrows {
		s.mrows[qi] = s.madc[qi*tab : (qi+1)*tab]
	}

	scanned := x.coarse.invertProbes(probes, s)
	for cell := 0; cell < x.coarse.cents.Rows(); cell++ {
		lo, hi, tables, outs := x.coarse.probers(cell, nprobe, s.mrows, s)
		if len(tables) == 0 {
			continue
		}
		if x.codes8 != nil {
			linalg.PQScan8Multi(tables, x.codes8[int(lo)*m:int(hi)*m], m, ksub, outs)
		} else {
			linalg.PQScan16Multi(tables, x.codes16[int(lo)*m:int(hi)*m], m, ksub, outs)
		}
	}

	x.coarse.replayRegions(probes, nprobe, k, x.ids, s, tops)
	accumulate(st, Stats{Lookups: int64(scanned) * int64(m)})
	x.scratch.put(s)
}

func (x *ivfPQ) MemoryBytes() int64 {
	var bookBytes int64
	if x.books != nil {
		bookBytes = x.books.Bytes() // exact: m*ksubN rows (ksub may be clamped)
	}
	// Codes at their actual packed width: 1 byte per entry in codes8,
	// 2 in codes16 (exactly one of the two is populated).
	return int64(len(x.codes8)) + 2*int64(len(x.codes16)) +
		bookBytes +
		x.coarse.centroidBytes() +
		int64(len(x.ids))*4 // grouped row ids
}

func (x *ivfPQ) BuildStats() Stats { return x.coarse.buildWork }

func (x *ivfPQ) StoreAdopted() bool { return false }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
