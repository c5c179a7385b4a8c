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

func (x *ivfPQ) pool() *scratchPool { return &x.scratch }

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

func (x *ivfPQ) Search(q []float32, k int, p SearchParams, st *Stats) []linalg.Neighbor {
	return searchPooled(x, q, k, p, st)
}

func (x *ivfPQ) searchWith(q []float32, k int, p SearchParams, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	if x.codeLen() == 0 || k < 1 {
		return dst
	}
	cells := x.coarse.probe(q, x.coarse.clampProbe(p.NProbe), st, s)
	return x.scanCells(q, cells, k, st, s, dst)
}

// scanCells builds the per-query ADC table and scans the given cells'
// codes in probe order with the unrolled PQScan kernels (four independent
// gather chains per code row), returning the top-k appended to dst.
func (x *ivfPQ) scanCells(q []float32, cells []int32, k int, st *Stats, s *searchScratch, dst []linalg.Neighbor) []linalg.Neighbor {
	// Build the flat ADC lookup table: adc[s*ksub+c] is the distance
	// between the query's subvector s and codeword c, computed with one
	// blocked kernel call per subspace over the contiguous codeword
	// arena (the metric epilogue is fused in DistanceBlock). Total work
	// is m * ksub subspace distances = ksub full-dimension equivalents.
	ksub := x.ksubN
	m := x.m
	adc := f32Buf(s.adc, m*ksub)
	books := x.books.Data()
	rowLen := ksub * x.subDim
	for sub := 0; sub < m; sub++ {
		qs := q[sub*x.subDim : (sub+1)*x.subDim]
		out := adc[sub*ksub : (sub+1)*ksub]
		linalg.DistanceBlock(x.coarse.metric, qs, books[sub*rowLen:(sub+1)*rowLen], out)
	}
	s.adc = adc
	accumulate(st, Stats{DistComps: int64(ksub)})

	top := s.top.Reset(k)
	var candidates int64
	for _, cell := range cells {
		lo, hi := x.coarse.cellRange(cell)
		if lo == hi {
			continue
		}
		s.dists = f32Buf(s.dists, int(hi-lo))
		if x.codes8 != nil {
			linalg.PQScan8(adc, x.codes8[int(lo)*m:int(hi)*m], m, ksub, s.dists)
		} else {
			linalg.PQScan16(adc, x.codes16[int(lo)*m:int(hi)*m], m, ksub, s.dists)
		}
		top.PushBlock(x.ids[lo:hi], s.dists)
		candidates += int64(hi - lo)
	}
	accumulate(st, Stats{Lookups: candidates * int64(m)})
	if dst == nil {
		dst = make([]linalg.Neighbor, 0, top.Len())
	}
	return top.AppendResults(dst)
}

func (x *ivfPQ) SearchInto(q []float32, k int, p SearchParams, st *Stats, top *linalg.TopK) {
	searchIntoPooled(x, q, k, p, st, top)
}

// SearchMultiInto shares the code-arena streaming across the query tile:
// batched coarse assignment, all Q ADC tables built into one flat arena
// (one DistanceMultiScatter per subspace over the contiguous codeword
// range — bit-identical to Q per-query DistanceBlock builds), then the
// probe table is inverted cell→probers and each probed cell's code range
// is walked once for all of its probers (each code row's entries load
// once per tile, not once per query), and a per-query replay reproduces
// the single-query candidate sequence exactly.
func (x *ivfPQ) SearchMultiInto(queries [][]float32, k int, p SearchParams, st *Stats, tops []*linalg.TopK) {
	qn := len(queries)
	if x.codeLen() == 0 || k < 1 || qn == 0 {
		return
	}
	s := x.scratch.get()
	nprobe := x.coarse.clampProbe(p.NProbe)
	probes := x.coarse.probeMulti(queries, nprobe, st, s)

	// Phase 1b: all Q ADC tables, one blocked multi-query kernel call per
	// subspace over the contiguous codeword arena.
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

	// Phase 2: invert and scan each probed cell once for all its probers.
	total := x.coarse.invertProbes(probes, s)
	ncells := x.coarse.cents.Rows()
	for c := 0; c < ncells; c++ {
		elo, ehi := int(s.mcnt[c]), int(s.mcnt[c+1])
		if elo == ehi {
			continue
		}
		lo, hi := x.coarse.cellRange(int32(c))
		if lo == hi {
			continue
		}
		nq := ehi - elo
		s.mqrows = f32sBuf(s.mqrows, nq)
		s.mouts = f32sBuf(s.mouts, nq)
		for j := 0; j < nq; j++ {
			slot := s.ment[elo+j]
			qi := int(slot) / nprobe
			s.mqrows[j] = s.madc[qi*tab : (qi+1)*tab]
			o := s.mregion[slot]
			s.mouts[j] = s.mbuf[o : o+hi-lo]
		}
		if x.codes8 != nil {
			linalg.PQScan8Multi(s.mqrows[:nq], x.codes8[int(lo)*m:int(hi)*m], m, ksub, s.mouts[:nq])
		} else {
			linalg.PQScan16Multi(s.mqrows[:nq], x.codes16[int(lo)*m:int(hi)*m], m, ksub, s.mouts[:nq])
		}
	}

	x.coarse.replayRegions(probes, nprobe, k, x.ids, s, tops)
	accumulate(st, Stats{Lookups: int64(total) * int64(m)})
	for j := range s.mqrows {
		s.mqrows[j] = nil // don't pin caller query slices in the pool
	}
	x.scratch.put(s)
}

func (x *ivfPQ) SearchBatch(queries [][]float32, k int, p SearchParams, st *Stats) [][]linalg.Neighbor {
	return searchBatch(x, queries, k, p, st)
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
