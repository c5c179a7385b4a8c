package linalg

// Blocked SQ8 scan entry points. codes is a packed arena of dim-byte rows
// (one contiguous range of a cell-major code arena); decoding is fused
// into the scoring loop, so a scan streams the byte rows without ever
// materializing the float32 reconstruction. The multi-query form shares
// each decoded row across a quad of queries — the decode (u8→f32 widen +
// scale multiply) is the dominant per-element cost, and it is paid once
// per row instead of once per (query, row).

// SQ8Residual fills r[j] = q[j] - min[j], the hoisted affine constant of
// the L2 scan: (q - rec) == (q - min) - code*scale exactly when the
// subtraction q - min is performed up front, so the per-element work drops
// from two adds to one subtract.
func SQ8Residual(q, min, r []float32) {
	for j := range r {
		r[j] = q[j] - min[j]
	}
}

// SQ8Distance is the scalar reference for one (query, code row) pair: the
// accumulation contract at rows=1, with q the raw query (the L2 residual
// fold happens inline, which is bit-identical to precomputing it). Used by
// the one-off codec paths and the bit-identity tests.
func SQ8Distance(m Metric, q, min, scale []float32, code []byte) float32 {
	l2, op := metricKernel(m)
	dim := len(code)
	var s0, s1, s2, s3 float32
	if l2 {
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := (q[j] - min[j]) - float32(code[j])*scale[j]
			d1 := (q[j+1] - min[j+1]) - float32(code[j+1])*scale[j+1]
			d2 := (q[j+2] - min[j+2]) - float32(code[j+2])*scale[j+2]
			d3 := (q[j+3] - min[j+3]) - float32(code[j+3])*scale[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; j < dim; j++ {
			d := (q[j] - min[j]) - float32(code[j])*scale[j]
			s0 += d * d
		}
		return s0 + s1 + s2 + s3
	}
	j := 0
	for ; j+4 <= dim; j += 4 {
		s0 += q[j] * (min[j] + float32(code[j])*scale[j])
		s1 += q[j+1] * (min[j+1] + float32(code[j+1])*scale[j+1])
		s2 += q[j+2] * (min[j+2] + float32(code[j+2])*scale[j+2])
		s3 += q[j+3] * (min[j+3] + float32(code[j+3])*scale[j+3])
	}
	for ; j < dim; j++ {
		s0 += q[j] * (min[j] + float32(code[j])*scale[j])
	}
	s := s0 + s1 + s2 + s3
	switch op {
	case opNeg:
		s = -s
	case opOneMinus:
		s = 1 - s
	}
	return s
}

// sq8RowTile sizes the code-row tile of a multi-query SQ8 scan: rows are
// dim bytes, a quarter of the float width, so four times the float tile
// fits the same L1 budget.
func sq8RowTile(dim, q int) int {
	t := MultiRowTile(dim, q) * 4
	if t > 16384 {
		t = 16384
	}
	return t
}

// DistanceSQ8MultiScatter computes, for each query i, the SQ8 distance of
// queries[i] to every code row, writing row r's distance to outs[i][r].
// Under L2 every queries[i] must be its residual (SQ8Residual); under the
// dot metrics they are raw queries. Outputs are bitwise equal to
// SQ8Distance on the raw query; the code arena is streamed once, in
// cache-resident tiles whose decode each quad of queries shares.
func DistanceSQ8MultiScatter(m Metric, queries [][]float32, min, scale []float32, codes []byte, outs [][]float32) {
	l2, op := metricKernel(m)
	qn := len(queries)
	if qn == 0 {
		return
	}
	dim := len(scale)
	if dim == 0 {
		return
	}
	rows := len(codes) / dim
	tile := sq8RowTile(dim, qn)
	for lo := 0; lo < rows; lo += tile {
		hi := lo + tile
		if hi > rows {
			hi = rows
		}
		b := codes[lo*dim : hi*dim]
		qi := 0
		for ; qi+4 <= qn; qi += 4 {
			if l2 {
				sq8L2Multi4Kernel(queries[qi], queries[qi+1], queries[qi+2], queries[qi+3], scale, b,
					outs[qi][lo:hi], outs[qi+1][lo:hi], outs[qi+2][lo:hi], outs[qi+3][lo:hi])
			} else {
				sq8DotMulti4Kernel(queries[qi], queries[qi+1], queries[qi+2], queries[qi+3], min, scale, b,
					outs[qi][lo:hi], outs[qi+1][lo:hi], outs[qi+2][lo:hi], outs[qi+3][lo:hi], op)
			}
		}
		for ; qi < qn; qi++ {
			if l2 {
				sq8L2BlockKernel(queries[qi], scale, b, outs[qi][lo:hi])
			} else {
				sq8DotBlockKernel(queries[qi], min, scale, b, outs[qi][lo:hi], op)
			}
		}
	}
}
