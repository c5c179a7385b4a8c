//go:build !amd64 || purego

package linalg

// Portable dispatch: the scalar kernels are the implementation. The
// `purego` build tag forces this path on amd64 too (useful for
// differential testing and as an escape hatch).

// cpuTier and dispatchTier mirror kernels_amd64.go's for the tests: this
// build has one tier, and dispatch does not consult them.
const cpuTier = tierPortable

var dispatchTier = cpuTier

func dotBlockKernel(q, block []float32, out []float32, op int) {
	dotBlockGo(q, block, out, op)
}

func l2BlockKernel(q, block []float32, out []float32) {
	l2BlockGo(q, block, out)
}

func dotMulti4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32, op int) {
	dotMulti4Go(q0, q1, q2, q3, block, o0, o1, o2, o3, op)
}

func l2Multi4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32) {
	l2Multi4Go(q0, q1, q2, q3, block, o0, o1, o2, o3)
}

func l2Gather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	l2Gather4Go(q, r0, r1, r2, r3, out)
}

func dotGather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32, op int) {
	dotGather4Go(q, r0, r1, r2, r3, out, op)
}

func sq8L2BlockKernel(r, scale []float32, codes []byte, out []float32) {
	sq8L2BlockGo(r, scale, codes, out)
}

func sq8DotBlockKernel(q, min, scale []float32, codes []byte, out []float32, op int) {
	sq8DotBlockGo(q, min, scale, codes, out, op)
}

func sq8L2Multi4Kernel(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32) {
	sq8L2Multi4Go(r0, r1, r2, r3, scale, codes, o0, o1, o2, o3)
}

func sq8DotMulti4Kernel(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int) {
	sq8DotMulti4Go(q0, q1, q2, q3, min, scale, codes, o0, o1, o2, o3, op)
}

func pqScan8Kernel(table []float32, codes []byte, m, ksub int, out []float32) {
	pqScan8Go(table, codes, m, ksub, out)
}
