package linalg

// Multi-query blocked kernels: score a tile of Q queries against a packed
// row arena in one streaming pass. The arena is walked in row tiles sized
// by MultiRowTile so a tile stays cache-resident while all Q queries are
// scored against it — rows are loaded from memory once per batch instead
// of once per query, the classic GEMM restructuring. Queries are processed
// in quads (the SSE multi kernel shares each row load across 4 queries)
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

// multiScatter is the shared core: queries[i] scored against every row of
// block, written to outs[i] (each len(block)/dim long). l2 selects the
// squared-L2 kernels; otherwise the dot kernels run with the fused op
// epilogue. Row tiles are processed innermost so each tile is reused
// across all queries while cache-resident.
func multiScatter(l2 bool, op int, queries [][]float32, block []float32, outs [][]float32) {
	qn := len(queries)
	if qn == 0 {
		return
	}
	dim := len(queries[0])
	if dim == 0 {
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
			if l2 {
				l2Multi4Kernel(queries[qi], queries[qi+1], queries[qi+2], queries[qi+3], b,
					outs[qi][lo:hi], outs[qi+1][lo:hi], outs[qi+2][lo:hi], outs[qi+3][lo:hi])
			} else {
				dotMulti4Kernel(queries[qi], queries[qi+1], queries[qi+2], queries[qi+3], b,
					outs[qi][lo:hi], outs[qi+1][lo:hi], outs[qi+2][lo:hi], outs[qi+3][lo:hi], op)
			}
		}
		for ; qi < qn; qi++ {
			if l2 {
				l2BlockKernel(queries[qi], b, outs[qi][lo:hi])
			} else {
				dotBlockKernel(queries[qi], b, outs[qi][lo:hi], op)
			}
		}
	}
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

// multiMatrix adapts the Matrix query form onto multiScatter: out is
// query-major, out[qi*rows : (qi+1)*rows] holding query qi's results.
func multiMatrix(l2 bool, op int, queries *Matrix, block []float32, out []float32) {
	qn := queries.Rows()
	if qn == 0 {
		return
	}
	dim := queries.Dim()
	if dim == 0 {
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
			o0 := out[qi*rows:]
			o1 := out[(qi+1)*rows:]
			o2 := out[(qi+2)*rows:]
			o3 := out[(qi+3)*rows:]
			if l2 {
				l2Multi4Kernel(queries.Row(qi), queries.Row(qi+1), queries.Row(qi+2), queries.Row(qi+3), b,
					o0[lo:hi], o1[lo:hi], o2[lo:hi], o3[lo:hi])
			} else {
				dotMulti4Kernel(queries.Row(qi), queries.Row(qi+1), queries.Row(qi+2), queries.Row(qi+3), b,
					o0[lo:hi], o1[lo:hi], o2[lo:hi], o3[lo:hi], op)
			}
		}
		for ; qi < qn; qi++ {
			o := out[qi*rows:]
			if l2 {
				l2BlockKernel(queries.Row(qi), b, o[lo:hi])
			} else {
				dotBlockKernel(queries.Row(qi), b, o[lo:hi], op)
			}
		}
	}
}

// DotMultiBlock computes the dot product of every query row of queries
// against every row of the packed arena block: out[qi*rows+r] is bitwise
// equal to Dot(queries.Row(qi), row_r), with rows = len(block)/dim. out
// must hold queries.Rows()*rows values.
func DotMultiBlock(queries *Matrix, block []float32, out []float32) {
	multiMatrix(false, opNone, queries, block, out)
}

// SquaredL2MultiBlock is the squared-Euclidean counterpart of
// DotMultiBlock: out[qi*rows+r] == SquaredL2(queries.Row(qi), row_r),
// bitwise.
func SquaredL2MultiBlock(queries *Matrix, block []float32, out []float32) {
	multiMatrix(true, opNone, queries, block, out)
}

// DistanceMultiBlock computes the distance of every query row to every
// arena row under metric m: out[qi*rows+r] == Distance(m,
// queries.Row(qi), row_r), bitwise. The metric epilogue is fused into the
// scoring loop like DistanceBlock's.
func DistanceMultiBlock(m Metric, queries *Matrix, block []float32, out []float32) {
	l2, op := metricKernel(m)
	multiMatrix(l2, op, queries, block, out)
}
