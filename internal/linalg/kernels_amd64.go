//go:build amd64 && !purego

package linalg

// The kernels in kernels_amd64.s mirror the scalar loops exactly. The
// float and SQ8 kernels come in two tiers. SSE2: XMM lane l accumulates the
// elements at indices ≡ l (mod 4) — the same partial sums s0..s3 as the Go
// code — the scalar tail adds into lane 0, and the horizontal reduce sums
// ((s0+s1)+s2)+s3 with scalar ADDSS in that order. AVX2: a YMM register
// carries two rows, one per 128-bit half, each half holding that row's
// four mod-4 sums — two SSE accumulators side by side, never one row's
// sums spread over more lanes — and each half is finished by the SSE tail,
// reduce and epilogue. The PQ kernel is SSE2 only. No FMA, no
// re-association: every output is bitwise equal to the portable kernels,
// which the bit-identity tests assert at every tier. The op epilogue uses
// exact operations only (sign-flip via XOR, 1-x via SUBSS from the
// constant 1.0).
//
// Every float and SQ8 kernel symbol is a call of one body macro, written
// once per kernel shape and register width, with its metric's step macros
// and epilogue: the L2 and dot kernels of a shape differ in nothing else.
// Every kernel needs at least one row; the wrappers below return before
// calling with none.

// cpuTier is the widest tier this CPU runs, read once from CPUID.
var cpuTier = detectTier(readCPU())

// dispatchTier is the tier every kernel wrapper dispatches to: float and
// SQ8 up to AVX2, PQ up to SSE. Only tests change it, to run every tier
// under the bit-identity checks.
var dispatchTier = cpuTier

// cpuWords are the CPUID and XGETBV words tier detection reads.
type cpuWords struct {
	maxLeaf uint32 // CPUID leaf 0 EAX: the highest standard leaf
	ecx1    uint32 // CPUID leaf 1 ECX: bit 27 OSXSAVE, bit 28 AVX
	ebx7    uint32 // CPUID leaf 7.0 EBX: bit 5 AVX2
	xcr0    uint32 // XGETBV(0) EAX: bits 1–2, XMM and YMM state saved by the OS
}

// detectTier picks the widest tier the words allow: AVX2 when the
// CPU has AVX and AVX2 and the OS saves YMM state, else SSE, which every
// amd64 CPU has.
func detectTier(w cpuWords) kernelTier {
	const (
		osxsave  = 1 << 27
		avx      = 1 << 28
		avx2     = 1 << 5
		ymmState = 1<<1 | 1<<2
	)
	if w.ecx1&(osxsave|avx) != osxsave|avx || w.xcr0&ymmState != ymmState ||
		w.maxLeaf < 7 || w.ebx7&avx2 == 0 {
		return tierSSE
	}
	return tierAVX2
}

// readCPU reads the words detectTier needs. XGETBV faults unless OSXSAVE
// is set, so it runs only then; leaf 7 is read only where it exists.
func readCPU() cpuWords {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, w.ecx1, _ = cpuid(1, 0)
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuid(7, 0)
	}
	if w.ecx1&(1<<27) != 0 {
		w.xcr0 = xgetbv()
	}
	return w
}

//go:noescape
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() uint32

//go:noescape
func dotBlockSSE(q, block, out []float32, op int64)

//go:noescape
func l2BlockSSE(q, block, out []float32)

//go:noescape
func dotMulti4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32, op int64)

//go:noescape
func l2Multi4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32)

// The AVX2 bodies score whole groups of rows only: len(out) (len(o0)) is a
// positive multiple of four for the single-query kernels, of two for the
// quad kernels.

//go:noescape
func dotBlockAVX2(q, block, out []float32, op int64)

//go:noescape
func l2BlockAVX2(q, block, out []float32)

//go:noescape
func dotMulti4AVX2(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32, op int64)

//go:noescape
func l2Multi4AVX2(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32)

// The gathered kernels score q against four rows given by address — one
// group of YGATHER4 at the AVX2 tier, GATHER4's four accumulators at SSE.

//go:noescape
func l2Gather4SSE(q []float32, r0, r1, r2, r3 *float32, out *[4]float32)

//go:noescape
func dotGather4SSE(q []float32, r0, r1, r2, r3 *float32, out *[4]float32, op int64)

//go:noescape
func l2Gather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32)

//go:noescape
func dotGather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32, op int64)

// Each wrapper reads dispatchTier once. At the AVX2 tier a block wrapper's
// AVX2 body takes the leading whole groups of rows and the SSE body the
// rest, so a call shorter than a group (a one-pair Distance) runs SSE; the
// gather wrappers always score a whole group of four.

func dotBlockKernel(q, block []float32, out []float32, op int) {
	rows, dim, tier := len(out), len(q), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || tier == tierPortable {
		dotBlockGo(q, block, out, op)
		return
	}
	_ = block[rows*dim-1] // one bounds check for the whole arena scan
	if n := rows &^ 3; n > 0 && tier == tierAVX2 {
		dotBlockAVX2(q, block[:n*dim], out[:n], int64(op))
		if n == rows {
			return
		}
		block, out = block[n*dim:], out[n:]
	}
	dotBlockSSE(q, block, out, int64(op))
}

func l2BlockKernel(q, block []float32, out []float32) {
	rows, dim, tier := len(out), len(q), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || tier == tierPortable {
		l2BlockGo(q, block, out)
		return
	}
	_ = block[rows*dim-1]
	if n := rows &^ 3; n > 0 && tier == tierAVX2 {
		l2BlockAVX2(q, block[:n*dim], out[:n])
		if n == rows {
			return
		}
		block, out = block[n*dim:], out[n:]
	}
	l2BlockSSE(q, block, out)
}

func dotMulti4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32, op int) {
	rows, dim, tier := len(o0), len(q0), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || tier == tierPortable {
		dotMulti4Go(q0, q1, q2, q3, block, o0, o1, o2, o3, op)
		return
	}
	_ = block[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	if n := rows &^ 1; n > 0 && tier == tierAVX2 {
		dotMulti4AVX2(q0, q1, q2, q3, block[:n*dim], o0[:n], o1[:n], o2[:n], o3[:n], int64(op))
		if n == rows {
			return
		}
		block, o0, o1, o2, o3 = block[n*dim:], o0[n:], o1[n:], o2[n:], o3[n:]
	}
	dotMulti4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3, int64(op))
}

func l2Multi4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32) {
	rows, dim, tier := len(o0), len(q0), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || tier == tierPortable {
		l2Multi4Go(q0, q1, q2, q3, block, o0, o1, o2, o3)
		return
	}
	_ = block[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	if n := rows &^ 1; n > 0 && tier == tierAVX2 {
		l2Multi4AVX2(q0, q1, q2, q3, block[:n*dim], o0[:n], o1[:n], o2[:n], o3[:n])
		if n == rows {
			return
		}
		block, o0, o1, o2, o3 = block[n*dim:], o0[n:], o1[n:], o2[n:], o3[n:]
	}
	l2Multi4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3)
}

func l2Gather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	dim, tier := len(q), dispatchTier
	if dim == 0 || tier == tierPortable {
		l2Gather4Go(q, r0, r1, r2, r3, out)
		return
	}
	_, _, _, _ = r0[dim-1], r1[dim-1], r2[dim-1], r3[dim-1] // the rows the kernel reads
	if tier == tierAVX2 {
		l2Gather4AVX2(q, &r0[0], &r1[0], &r2[0], &r3[0], out)
		return
	}
	l2Gather4SSE(q, &r0[0], &r1[0], &r2[0], &r3[0], out)
}

func dotGather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32, op int) {
	dim, tier := len(q), dispatchTier
	if dim == 0 || tier == tierPortable {
		dotGather4Go(q, r0, r1, r2, r3, out, op)
		return
	}
	_, _, _, _ = r0[dim-1], r1[dim-1], r2[dim-1], r3[dim-1]
	if tier == tierAVX2 {
		dotGather4AVX2(q, &r0[0], &r1[0], &r2[0], &r3[0], out, int64(op))
		return
	}
	dotGather4SSE(q, &r0[0], &r1[0], &r2[0], &r3[0], out, int64(op))
}

// SQ8 byte-domain kernels: same lane contract, with the u8 code row
// widened in-register (PUNPCKLBW/PUNPCKLWL + CVTPL2PS; VPMOVZXBD +
// VCVTDQ2PS for a YMM row pair) — four bytes decode to four float32 lanes
// per step, so lane l still accumulates indices ≡ l mod 4 and outputs stay
// bitwise equal to the portable kernels. The wrappers dispatch as the
// float ones do.

//go:noescape
func sq8L2BlockSSE(r, scale []float32, codes []byte, out []float32)

//go:noescape
func sq8DotBlockSSE(q, min, scale []float32, codes []byte, out []float32, op int64)

//go:noescape
func sq8L2Multi4SSE(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32)

//go:noescape
func sq8DotMulti4SSE(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int64)

//go:noescape
func sq8L2BlockAVX2(r, scale []float32, codes []byte, out []float32)

//go:noescape
func sq8DotBlockAVX2(q, min, scale []float32, codes []byte, out []float32, op int64)

//go:noescape
func sq8L2Multi4AVX2(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32)

//go:noescape
func sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int64)

func sq8L2BlockKernel(r, scale []float32, codes []byte, out []float32) {
	rows, dim, tier := len(out), len(r), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(scale) != dim || tier == tierPortable {
		sq8L2BlockGo(r, scale, codes, out)
		return
	}
	_ = codes[rows*dim-1] // one bounds check for the whole arena scan
	if n := rows &^ 3; n > 0 && tier == tierAVX2 {
		sq8L2BlockAVX2(r, scale, codes[:n*dim], out[:n])
		if n == rows {
			return
		}
		codes, out = codes[n*dim:], out[n:]
	}
	sq8L2BlockSSE(r, scale, codes, out)
}

func sq8DotBlockKernel(q, min, scale []float32, codes []byte, out []float32, op int) {
	rows, dim, tier := len(out), len(q), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(min) != dim || len(scale) != dim || tier == tierPortable {
		sq8DotBlockGo(q, min, scale, codes, out, op)
		return
	}
	_ = codes[rows*dim-1]
	if n := rows &^ 3; n > 0 && tier == tierAVX2 {
		sq8DotBlockAVX2(q, min, scale, codes[:n*dim], out[:n], int64(op))
		if n == rows {
			return
		}
		codes, out = codes[n*dim:], out[n:]
	}
	sq8DotBlockSSE(q, min, scale, codes, out, int64(op))
}

func sq8L2Multi4Kernel(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32) {
	rows, dim, tier := len(o0), len(r0), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(r1) != dim || len(r2) != dim || len(r3) != dim || len(scale) != dim || tier == tierPortable {
		sq8L2Multi4Go(r0, r1, r2, r3, scale, codes, o0, o1, o2, o3)
		return
	}
	_ = codes[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	if n := rows &^ 1; n > 0 && tier == tierAVX2 {
		sq8L2Multi4AVX2(r0, r1, r2, r3, scale, codes[:n*dim], o0[:n], o1[:n], o2[:n], o3[:n])
		if n == rows {
			return
		}
		codes, o0, o1, o2, o3 = codes[n*dim:], o0[n:], o1[n:], o2[n:], o3[n:]
	}
	sq8L2Multi4SSE(r0, r1, r2, r3, scale, codes, o0, o1, o2, o3)
}

func sq8DotMulti4Kernel(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int) {
	rows, dim, tier := len(o0), len(q0), dispatchTier
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || len(min) != dim || len(scale) != dim || tier == tierPortable {
		sq8DotMulti4Go(q0, q1, q2, q3, min, scale, codes, o0, o1, o2, o3, op)
		return
	}
	_ = codes[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	if n := rows &^ 1; n > 0 && tier == tierAVX2 {
		sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale, codes[:n*dim], o0[:n], o1[:n], o2[:n], o3[:n], int64(op))
		if n == rows {
			return
		}
		codes, o0, o1, o2, o3 = codes[n*dim:], o0[n:], o1[n:], o2[n:], o3[n:]
	}
	sq8DotMulti4SSE(q0, q1, q2, q3, min, scale, codes, o0, o1, o2, o3, int64(op))
}

//go:noescape
func pqScan8SSE(table []float32, codes []byte, m, ksub int64, out []float32)

// pqScan8Kernel dispatches the narrow ADC scan. The asm path gathers
// table[j*ksub+code] without per-element bounds checks, so it requires
// the table to cover the worst representable code ((m-1)*ksub + 255 —
// exactly m*ksub entries at the common ksub=256) and one m-byte code row
// per output; anything short falls back to the bounds-checked Go loop.
func pqScan8Kernel(table []float32, codes []byte, m, ksub int, out []float32) {
	rows := len(out)
	if rows == 0 {
		return
	}
	if m <= 0 || ksub <= 0 || len(table) < (m-1)*ksub+256 || len(codes) < rows*m || dispatchTier == tierPortable {
		pqScan8Go(table, codes, m, ksub, out)
		return
	}
	pqScan8SSE(table, codes, int64(m), int64(ksub), out)
}
