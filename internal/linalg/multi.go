package linalg

// Multi-query blocked kernels: score a tile of Q queries against a packed
// row arena in one streaming pass. The arena is walked in row tiles sized
// by MultiRowTile so a tile stays cache-resident while all Q queries are
// scored against it — rows are loaded from memory once per batch instead
// of once per query, the classic GEMM restructuring. Queries are processed
// in quads (the quad kernel shares each row load across 4 queries)
// with a single-query kernel sweeping the remainder.
//
// The per-(query, row) arithmetic is exactly the single-query kernels'
// (of which Dot/SquaredL2/Distance are the one-row case): tiling and quad
// grouping change only the order rows are *visited*, never the operations
// applied to any one (query, row) pair, so every output is bit-identical
// to Q independent single-query scans.

// MultiRowTile returns the number of arena rows a multi-query scan should
// process per tile: the largest row block that fits in L1d alongside the
// q query vectors (falling back to a quarter of L1d when the queries
// alone overflow it — the row tile then lives in L1 and the queries
// stream from L2). The result is clamped to [16, 4096] rows.
func MultiRowTile(dim, q int) int {
	if dim <= 0 {
		return 1
	}
	const l1 = 32 << 10
	budget := l1 - q*dim*4
	if budget < l1/4 {
		budget = l1 / 4
	}
	rows := budget / (dim * 4)
	if rows < 16 {
		rows = 16
	}
	if rows > 4096 {
		rows = 4096
	}
	return rows
}

// multiTiles is the one tile loop of the multi-query kernels: query(i) is
// scored against every row of block and written to out(i) (len(block)/dim
// long), for i in [0, qn). l2 selects the squared-L2 kernels; otherwise
// the dot kernels run with the fused op epilogue. Row tiles are processed
// innermost so each tile is reused across all queries while
// cache-resident. The accessors let the slice and Matrix query forms share
// the body; they are called per (tile, query), beside a kernel call that
// streams the whole tile.
func multiTiles(l2 bool, op int, qn, dim int, block []float32, query, out func(i int) []float32) {
	if qn == 0 || dim == 0 {
		return
	}
	rows := len(block) / dim
	tile := MultiRowTile(dim, qn)
	for lo := 0; lo < rows; lo += tile {
		hi := lo + tile
		if hi > rows {
			hi = rows
		}
		b := block[lo*dim : hi*dim]
		qi := 0
		for ; qi+4 <= qn; qi += 4 {
			q0, q1, q2, q3 := query(qi), query(qi+1), query(qi+2), query(qi+3)
			o0, o1, o2, o3 := out(qi)[lo:hi], out(qi + 1)[lo:hi], out(qi + 2)[lo:hi], out(qi + 3)[lo:hi]
			if l2 {
				l2Multi4Kernel(q0, q1, q2, q3, b, o0, o1, o2, o3)
			} else {
				dotMulti4Kernel(q0, q1, q2, q3, b, o0, o1, o2, o3, op)
			}
		}
		for ; qi < qn; qi++ {
			if l2 {
				l2BlockKernel(query(qi), b, out(qi)[lo:hi])
			} else {
				dotBlockKernel(query(qi), b, out(qi)[lo:hi], op)
			}
		}
	}
}

// multiScatter is multiTiles over query and output slices.
func multiScatter(l2 bool, op int, queries [][]float32, block []float32, outs [][]float32) {
	if len(queries) == 0 {
		return
	}
	multiTiles(l2, op, len(queries), len(queries[0]), block,
		func(i int) []float32 { return queries[i] },
		func(i int) []float32 { return outs[i] })
}

// metricKernel maps a metric to the kernel selector: the l2 kernel family
// or the dot family with a fused epilogue op.
func metricKernel(m Metric) (l2 bool, op int) {
	switch m {
	case L2:
		return true, opNone
	case InnerProduct:
		return false, opNeg
	case Angular:
		return false, opOneMinus
	default:
		panic("linalg: unknown metric " + m.String())
	}
}

// DistanceMultiScatter computes, for each query i, the distance of
// queries[i] to every row of the packed arena block under metric m,
// writing row r's distance to outs[i][r]. Every output is bitwise equal
// to DistanceBlock(m, queries[i], block, outs[i]); the arena is streamed
// once, in cache-resident tiles reused across all queries. All queries
// must share one dimension and len(block) must be a multiple of it.
func DistanceMultiScatter(m Metric, queries [][]float32, block []float32, outs [][]float32) {
	l2, op := metricKernel(m)
	multiScatter(l2, op, queries, block, outs)
}

// SquaredL2MultiBlock computes the squared Euclidean distance of every
// query row of queries to every row of the packed arena block:
// out[qi*rows+r] is bitwise equal to SquaredL2(queries.Row(qi), row_r),
// with rows = len(block)/dim. out must hold queries.Rows()*rows values. It
// is multiTiles with the Matrix supplying the query rows and a query-major
// flat output.
func SquaredL2MultiBlock(queries *Matrix, block []float32, out []float32) {
	dim := queries.Dim()
	if dim == 0 {
		return
	}
	rows := len(block) / dim
	multiTiles(true, opNone, queries.Rows(), dim, block, queries.Row,
		func(i int) []float32 { return out[i*rows : (i+1)*rows] })
}
