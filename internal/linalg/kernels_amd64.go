//go:build amd64 && !purego

package linalg

// The float and SQ8 kernels in kernels_amd64.s are AVX2 and mirror the
// scalar loops exactly: a YMM register carries two rows, one per 128-bit
// half, each half holding that row's four mod-4 sums — the same partial
// sums s0..s3 as the Go code, never one row's sums spread over more lanes
// — and each half is finished with scalar SSE instructions: the tail adds
// into lane 0, and the reduce sums ((s0+s1)+s2)+s3 with ADDSS in that
// order. The PQ kernel is SSE2. No FMA, no re-association: every output is
// bitwise equal to the portable kernels, which the bit-identity tests
// assert at both tiers. The op epilogue uses exact operations only
// (sign-flip via XOR, 1-x via SUBSS from the constant 1.0).
//
// Every float and SQ8 kernel symbol is a call of one body macro, written
// once per kernel shape, with its metric's step macros and epilogue: the
// L2 and dot kernels of a shape differ in nothing else. The bodies score
// whole groups of rows — four single-query, a pair for the quad kernels.
// The wrappers below give them a short final group padded by repeating its
// last row, with the results for the repeats landing in spare slots that
// are dropped, so every kernel reads only rows the caller passed. Every
// kernel needs at least one row; the wrappers return before calling with
// none.

// cpuTier is the widest tier this CPU runs, read once from CPUID.
var cpuTier = detectTier(readCPU())

// dispatchTier is the tier every kernel wrapper dispatches to. Only tests
// change it, to run both tiers under the bit-identity checks.
var dispatchTier = cpuTier

// cpuWords are the CPUID and XGETBV words tier detection reads.
type cpuWords struct {
	maxLeaf uint32 // CPUID leaf 0 EAX: the highest standard leaf
	ecx1    uint32 // CPUID leaf 1 ECX: bit 27 OSXSAVE, bit 28 AVX
	ebx7    uint32 // CPUID leaf 7.0 EBX: bit 5 AVX2
	xcr0    uint32 // XGETBV(0) EAX: bits 1–2, XMM and YMM state saved by the OS
}

// detectTier picks AVX2 when the CPU has AVX and AVX2 and the OS saves YMM
// state, else the portable kernels: slower, the same bits.
func detectTier(w cpuWords) kernelTier {
	const (
		osxsave  = 1 << 27
		avx      = 1 << 28
		avx2     = 1 << 5
		ymmState = 1<<1 | 1<<2
	)
	if w.ecx1&(osxsave|avx) != osxsave|avx || w.xcr0&ymmState != ymmState ||
		w.maxLeaf < 7 || w.ebx7&avx2 == 0 {
		return tierPortable
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

// The block kernels score len(out) rows, a positive multiple of four. The
// quad kernels score len(o0) rows, a positive multiple of two, in pairs:
// the first pair is block's first row and the row at hi, and both step two
// rows a pair — so hi = &block[dim] walks consecutive pairs, and
// hi = &block[0] with one pair scores one row in both halves.

//go:noescape
func dotBlockAVX2(q, block, out []float32, op int64)

//go:noescape
func l2BlockAVX2(q, block, out []float32)

//go:noescape
func dotMulti4AVX2(q0, q1, q2, q3, block []float32, hi *float32, o0, o1, o2, o3 []float32, op int64)

//go:noescape
func l2Multi4AVX2(q0, q1, q2, q3, block []float32, hi *float32, o0, o1, o2, o3 []float32)

// The gathered kernels score q against four rows given by address: one
// group of YGATHER4.

//go:noescape
func l2Gather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32)

//go:noescape
func dotGather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32, op int64)

// pad4 returns the offsets of the four rows a final group of rows
// [lo, rows) — one to three of them — is scored as: its rows, then its
// last row repeated.
func pad4(lo, rows, dim int) (a, b, c, d int) {
	last := rows - 1
	return lo * dim, min(lo+1, last) * dim, min(lo+2, last) * dim, last * dim
}

// Each wrapper reads dispatchTier once. At the AVX2 tier the block
// wrappers run the leading whole groups of four rows through the block
// body and a padded remainder through the gathered one; the quad wrappers
// run the leading pairs and then an odd last row as one pair on itself.

func dotBlockKernel(q, block []float32, out []float32, op int) {
	rows, dim := len(out), len(q)
	if rows == 0 {
		return
	}
	if dim == 0 || dispatchTier == tierPortable {
		dotBlockGo(q, block, out, op)
		return
	}
	_ = block[rows*dim-1] // one bounds check for the whole arena scan
	n := rows &^ 3
	if n > 0 {
		dotBlockAVX2(q, block[:n*dim], out[:n], int64(op))
	}
	if n < rows {
		var spare [4]float32
		a, b, c, d := pad4(n, rows, dim)
		dotGather4AVX2(q, &block[a], &block[b], &block[c], &block[d], &spare, int64(op))
		copy(out[n:], spare[:])
	}
}

func l2BlockKernel(q, block []float32, out []float32) {
	rows, dim := len(out), len(q)
	if rows == 0 {
		return
	}
	if dim == 0 || dispatchTier == tierPortable {
		l2BlockGo(q, block, out)
		return
	}
	_ = block[rows*dim-1]
	n := rows &^ 3
	if n > 0 {
		l2BlockAVX2(q, block[:n*dim], out[:n])
	}
	if n < rows {
		var spare [4]float32
		a, b, c, d := pad4(n, rows, dim)
		l2Gather4AVX2(q, &block[a], &block[b], &block[c], &block[d], &spare)
		copy(out[n:], spare[:])
	}
}

func dotMulti4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32, op int) {
	rows, dim := len(o0), len(q0)
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || dispatchTier == tierPortable {
		dotMulti4Go(q0, q1, q2, q3, block, o0, o1, o2, o3, op)
		return
	}
	_ = block[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	n := rows &^ 1
	if n > 0 {
		dotMulti4AVX2(q0, q1, q2, q3, block[:n*dim], &block[dim], o0[:n], o1[:n], o2[:n], o3[:n], int64(op))
	}
	if n < rows {
		var s [4][2]float32
		last := block[n*dim:]
		dotMulti4AVX2(q0, q1, q2, q3, last, &last[0], s[0][:], s[1][:], s[2][:], s[3][:], int64(op))
		o0[n], o1[n], o2[n], o3[n] = s[0][0], s[1][0], s[2][0], s[3][0]
	}
}

func l2Multi4Kernel(q0, q1, q2, q3, block []float32, o0, o1, o2, o3 []float32) {
	rows, dim := len(o0), len(q0)
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || dispatchTier == tierPortable {
		l2Multi4Go(q0, q1, q2, q3, block, o0, o1, o2, o3)
		return
	}
	_ = block[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	n := rows &^ 1
	if n > 0 {
		l2Multi4AVX2(q0, q1, q2, q3, block[:n*dim], &block[dim], o0[:n], o1[:n], o2[:n], o3[:n])
	}
	if n < rows {
		var s [4][2]float32
		last := block[n*dim:]
		l2Multi4AVX2(q0, q1, q2, q3, last, &last[0], s[0][:], s[1][:], s[2][:], s[3][:])
		o0[n], o1[n], o2[n], o3[n] = s[0][0], s[1][0], s[2][0], s[3][0]
	}
}

func l2Gather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32) {
	dim := len(q)
	if dim == 0 || dispatchTier == tierPortable {
		l2Gather4Go(q, r0, r1, r2, r3, out)
		return
	}
	_, _, _, _ = r0[dim-1], r1[dim-1], r2[dim-1], r3[dim-1] // the rows the kernel reads
	l2Gather4AVX2(q, &r0[0], &r1[0], &r2[0], &r3[0], out)
}

func dotGather4Kernel(q, r0, r1, r2, r3 []float32, out *[4]float32, op int) {
	dim := len(q)
	if dim == 0 || dispatchTier == tierPortable {
		dotGather4Go(q, r0, r1, r2, r3, out, op)
		return
	}
	_, _, _, _ = r0[dim-1], r1[dim-1], r2[dim-1], r3[dim-1]
	dotGather4AVX2(q, &r0[0], &r1[0], &r2[0], &r3[0], out, int64(op))
}

// SQ8 byte-domain kernels: same lane contract, with each u8 code row of a
// pair widened in-register (VPMOVZXBD + VCVTDQ2PS) — four bytes decode to
// four float32 lanes per step, so lane l still accumulates indices ≡ l
// mod 4 and outputs stay bitwise equal to the portable kernels. The block
// and quad kernels take groups as the float ones do, the gathered ones four
// code rows by address, and the wrappers pad as the float ones do.

//go:noescape
func sq8L2BlockAVX2(r, scale []float32, codes []byte, out []float32)

//go:noescape
func sq8DotBlockAVX2(q, min, scale []float32, codes []byte, out []float32, op int64)

//go:noescape
func sq8L2Gather4AVX2(r, scale []float32, c0, c1, c2, c3 *byte, out *[4]float32)

//go:noescape
func sq8DotGather4AVX2(q, min, scale []float32, c0, c1, c2, c3 *byte, out *[4]float32, op int64)

//go:noescape
func sq8L2Multi4AVX2(r0, r1, r2, r3, scale []float32, codes []byte, hi *byte, o0, o1, o2, o3 []float32)

//go:noescape
func sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale []float32, codes []byte, hi *byte, o0, o1, o2, o3 []float32, op int64)

func sq8L2BlockKernel(r, scale []float32, codes []byte, out []float32) {
	rows, dim := len(out), len(r)
	if rows == 0 {
		return
	}
	if dim == 0 || len(scale) != dim || dispatchTier == tierPortable {
		sq8L2BlockGo(r, scale, codes, out)
		return
	}
	_ = codes[rows*dim-1] // one bounds check for the whole arena scan
	n := rows &^ 3
	if n > 0 {
		sq8L2BlockAVX2(r, scale, codes[:n*dim], out[:n])
	}
	if n < rows {
		var spare [4]float32
		a, b, c, d := pad4(n, rows, dim)
		sq8L2Gather4AVX2(r, scale, &codes[a], &codes[b], &codes[c], &codes[d], &spare)
		copy(out[n:], spare[:])
	}
}

func sq8DotBlockKernel(q, min, scale []float32, codes []byte, out []float32, op int) {
	rows, dim := len(out), len(q)
	if rows == 0 {
		return
	}
	if dim == 0 || len(min) != dim || len(scale) != dim || dispatchTier == tierPortable {
		sq8DotBlockGo(q, min, scale, codes, out, op)
		return
	}
	_ = codes[rows*dim-1]
	n := rows &^ 3
	if n > 0 {
		sq8DotBlockAVX2(q, min, scale, codes[:n*dim], out[:n], int64(op))
	}
	if n < rows {
		var spare [4]float32
		a, b, c, d := pad4(n, rows, dim)
		sq8DotGather4AVX2(q, min, scale, &codes[a], &codes[b], &codes[c], &codes[d], &spare, int64(op))
		copy(out[n:], spare[:])
	}
}

func sq8L2Multi4Kernel(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32) {
	rows, dim := len(o0), len(r0)
	if rows == 0 {
		return
	}
	if dim == 0 || len(r1) != dim || len(r2) != dim || len(r3) != dim || len(scale) != dim || dispatchTier == tierPortable {
		sq8L2Multi4Go(r0, r1, r2, r3, scale, codes, o0, o1, o2, o3)
		return
	}
	_ = codes[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	n := rows &^ 1
	if n > 0 {
		sq8L2Multi4AVX2(r0, r1, r2, r3, scale, codes[:n*dim], &codes[dim], o0[:n], o1[:n], o2[:n], o3[:n])
	}
	if n < rows {
		var s [4][2]float32
		last := codes[n*dim:]
		sq8L2Multi4AVX2(r0, r1, r2, r3, scale, last, &last[0], s[0][:], s[1][:], s[2][:], s[3][:])
		o0[n], o1[n], o2[n], o3[n] = s[0][0], s[1][0], s[2][0], s[3][0]
	}
}

func sq8DotMulti4Kernel(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int) {
	rows, dim := len(o0), len(q0)
	if rows == 0 {
		return
	}
	if dim == 0 || len(q1) != dim || len(q2) != dim || len(q3) != dim || len(min) != dim || len(scale) != dim || dispatchTier == tierPortable {
		sq8DotMulti4Go(q0, q1, q2, q3, min, scale, codes, o0, o1, o2, o3, op)
		return
	}
	_ = codes[rows*dim-1]
	o1, o2, o3 = o1[:rows], o2[:rows], o3[:rows]
	n := rows &^ 1
	if n > 0 {
		sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale, codes[:n*dim], &codes[dim], o0[:n], o1[:n], o2[:n], o3[:n], int64(op))
	}
	if n < rows {
		var s [4][2]float32
		last := codes[n*dim:]
		sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale, last, &last[0], s[0][:], s[1][:], s[2][:], s[3][:], int64(op))
		o0[n], o1[n], o2[n], o3[n] = s[0][0], s[1][0], s[2][0], s[3][0]
	}
}

//go:noescape
func pqScan8SSE(table []float32, codes []byte, m, ksub int64, out []float32)

// pqScan8Kernel dispatches the narrow ADC scan. SSE2 is all it needs, but
// it runs at the AVX2 tier, so one tier decision covers every kernel
// family. The asm path gathers table[j*ksub+code] without per-element
// bounds checks, so it requires the table to cover the worst representable
// code ((m-1)*ksub + 255 — exactly m*ksub entries at the common ksub=256)
// and one m-byte code row per output; anything short falls back to the
// bounds-checked Go loop.
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
