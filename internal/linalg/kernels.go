package linalg

// Kernel op codes: the epilogue applied to a dot product inside the
// scoring loop. Fusing the metric's post-pass here (instead of a second
// sweep over out) keeps results bit-identical — negation and 1-x are
// exact float32 operations wherever they are applied — while saving one
// full pass over the output per scan.
const (
	opNone     = 0 // out = dot
	opNeg      = 1 // out = -dot      (InnerProduct)
	opOneMinus = 2 // out = 1 - dot   (Angular)
)

// kernelTier names an implementation of the kernels. Every tier computes
// the same bits; they differ only in register width.
type kernelTier int

const (
	tierPortable kernelTier = iota // the Go loops below
	tierSSE                        // kernels_amd64.s: one row per XMM register
	tierAVX2                       // kernels_amd64.s: two rows per YMM register
)

func (t kernelTier) String() string {
	return [...]string{"portable", "SSE", "AVX2"}[t]
}

// dotBlockGo is the portable scalar dot-product scan: q against every row
// of the packed arena block, with the op epilogue fused per row. Its
// accumulation — four accumulators over a 4-way unrolled loop, tail into
// s0, summed ((s0+s1)+s2)+s3 — is the arithmetic contract every other
// kernel (SSE, multi-query) must reproduce bitwise. This function and
// l2BlockGo are the only scalar float32 distance loops in the repository:
// the implementation where no assembly is built, and the tests' reference.
func dotBlockGo(q, block []float32, out []float32, op int) {
	dim := len(q)
	for i := range out {
		row := block[i*dim : i*dim+dim]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= dim; j += 4 {
			s0 += q[j] * row[j]
			s1 += q[j+1] * row[j+1]
			s2 += q[j+2] * row[j+2]
			s3 += q[j+3] * row[j+3]
		}
		for ; j < dim; j++ {
			s0 += q[j] * row[j]
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

// l2BlockGo is the portable scalar squared-L2 scan, with the accumulator
// structure of dotBlockGo.
func l2BlockGo(q, block []float32, out []float32) {
	dim := len(q)
	for i := range out {
		row := block[i*dim : i*dim+dim]
		var s0, s1, s2, s3 float32
		j := 0
		for ; j+4 <= dim; j += 4 {
			d0 := q[j] - row[j]
			d1 := q[j+1] - row[j+1]
			d2 := q[j+2] - row[j+2]
			d3 := q[j+3] - row[j+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; j < dim; j++ {
			d := q[j] - row[j]
			s0 += d * d
		}
		out[i] = s0 + s1 + s2 + s3
	}
}

// dotMulti4Go scores four queries against every row of block in one pass
// (each row is read once and reused). Per (query, row) the arithmetic is
// exactly dotBlockGo's, so outputs are bit-identical to four single-query
// scans; only the memory traffic differs.
func dotMulti4Go(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32, op int) {
	dotBlockGo(q0, block, o0, op)
	dotBlockGo(q1, block, o1, op)
	dotBlockGo(q2, block, o2, op)
	dotBlockGo(q3, block, o3, op)
}

// l2Multi4Go is the squared-L2 counterpart of dotMulti4Go.
func l2Multi4Go(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32) {
	l2BlockGo(q0, block, o0)
	l2BlockGo(q1, block, o1)
	l2BlockGo(q2, block, o2)
	l2BlockGo(q3, block, o3)
}
