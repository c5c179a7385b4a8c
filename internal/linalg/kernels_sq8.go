package linalg

// Portable SQ8 byte-domain scan kernels. A code row is dim bytes; the
// decoded value of element j is min[j] + float32(code[j])*scale[j]. The
// kernels never materialize the reconstruction: the affine constants are
// hoisted per query — the L2 form scores the residual r[j] = q[j] - min[j]
// against t = float32(code[j])*scale[j] directly (d = r - t equals
// q - (min + t) exactly when r is computed as q - min up front), and the
// dot form folds min back in per element. The accumulation contract is the
// float kernels': four partial sums over a 4-way unrolled loop (lane l
// holds indices ≡ l mod 4), tail into s0, reduced ((s0+s1)+s2)+s3, op
// epilogue fused — which the AVX2 kernels in kernels_amd64.s reproduce
// bitwise.

// sq8L2BlockGo scores the residual r (= q - min) against every code row:
// out[i] = Σ (r[j] - float32(row[j])*scale[j])².
func sq8L2BlockGo(r, scale []float32, codes []byte, out []float32) {
	dim := len(r)
	for i := range out {
		row := codes[i*dim : i*dim+dim]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := r[j] - float32(row[j])*scale[j]
			d1 := r[j+1] - float32(row[j+1])*scale[j+1]
			d2 := r[j+2] - float32(row[j+2])*scale[j+2]
			d3 := r[j+3] - float32(row[j+3])*scale[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; j < dim; j++ {
			d := r[j] - float32(row[j])*scale[j]
			s0 += d * d
		}
		out[i] = s0 + s1 + s2 + s3
	}
}

// sq8DotBlockGo scores q against every decoded code row with the op
// epilogue fused: dot_i = Σ q[j] * (min[j] + float32(row[j])*scale[j]).
func sq8DotBlockGo(q, min, scale []float32, codes []byte, out []float32, op int) {
	dim := len(q)
	for i := range out {
		row := codes[i*dim : i*dim+dim]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= dim; j += 4 {
			s0 += q[j] * (min[j] + float32(row[j])*scale[j])
			s1 += q[j+1] * (min[j+1] + float32(row[j+1])*scale[j+1])
			s2 += q[j+2] * (min[j+2] + float32(row[j+2])*scale[j+2])
			s3 += q[j+3] * (min[j+3] + float32(row[j+3])*scale[j+3])
		}
		for ; j < dim; j++ {
			s0 += q[j] * (min[j] + float32(row[j])*scale[j])
		}
		s := s0 + s1 + s2 + s3
		switch op {
		case opNeg:
			s = -s
		case opOneMinus:
			s = 1 - s
		}
		out[i] = s
	}
}

// sq8L2Multi4Go scores four residuals against every code row. Per
// (query, row) the arithmetic is exactly sq8L2BlockGo's — the shared
// decode t is the identical expression — so outputs are bit-identical to
// four single-query scans; only the memory traffic differs.
func sq8L2Multi4Go(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32) {
	sq8L2BlockGo(r0, scale, codes, o0)
	sq8L2BlockGo(r1, scale, codes, o1)
	sq8L2BlockGo(r2, scale, codes, o2)
	sq8L2BlockGo(r3, scale, codes, o3)
}

// sq8DotMulti4Go is the dot counterpart of sq8L2Multi4Go.
func sq8DotMulti4Go(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int) {
	sq8DotBlockGo(q0, min, scale, codes, o0, op)
	sq8DotBlockGo(q1, min, scale, codes, o1, op)
	sq8DotBlockGo(q2, min, scale, codes, o2, op)
	sq8DotBlockGo(q3, min, scale, codes, o3, op)
}
