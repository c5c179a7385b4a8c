//go:build amd64 && !purego

#include "textflag.h"

// AVX2 distance kernels, and the SSE2 PQ scan. The bit-identity contract
// (see kernels.go): lane l of a row's four-lane accumulator holds partial
// sum s_l (elements at indices ≡ l mod 4), the scalar tail accumulates into
// lane 0, and the reduce is the scalar chain ((s0+s1)+s2)+s3.
// VMULPS/VADDPS/VSUBPS round each lane exactly like the corresponding
// scalar ops, so every output is bitwise equal to the portable Go kernels.
// A YMM register carries two rows' s0..s3 side by side, one row per
// 128-bit half, but one row's sums are never split across more than four
// lanes, and FMA is not used: a different accumulator split or fused
// rounding would both break the contract.
//
// Each kernel shape is written once, as a body macro: YGATHER4 — which
// BLOCK4 runs once per group of consecutive rows — and MULTI2 (float),
// SQ8GATHER4 — which SQ8BLOCK4 runs the same way — and SQ8MULTI2 (SQ8).
// A body takes the metric as step macros and its ending as an epilogue
// macro, so a TEXT symbol is its argument loads plus one body call.
// HREDUCE is the only reduce and DOTEPI the only op epilogue. The bodies
// score whole groups only — four rows against one query, a pair of rows
// against four — and at least one: the Go wrappers pad a short final
// group by repeating its last row, and return before calling with none.
//
// The SQ8 bodies start their row loop on a 64-byte line (PCALIGN), which
// fixes where the vector loop falls in the instruction cache wherever the
// linker places the function. The SQ8 scan's speed depends on that
// placement: moved by code elsewhere in this file, with not one of its own
// instructions changed, it cost the engine's IVF_SQ8 search about a tenth
// of its rate on a 2-vCPU Sapphire Rapids guest. BLOCK4 and MULTI2 stay
// unaligned: aligned, the IVF_FLAT scan ran slower in four of five paired
// runs. The gathered bodies score one group per call and have no row loop
// to align.

DATA signmask32<>+0(SB)/4, $0x80000000
GLOBL signmask32<>(SB), RODATA|NOPTR, $4

DATA one32<>+0(SB)/4, $0x3F800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// Steps: the difference or product of a query and a row lands in a
// register (d on a YMM row pair, q on one scalar tail element), which then
// adds into acc — operand order as in the portable kernels: d = q - row,
// p = q * row, acc = acc + x. V* act on a YMM row pair, S* on one scalar
// tail element.
#define VL2(q, r, d, acc) VSUBPS r, q, d; VMULPS d, d, d; VADDPS d, acc, acc
#define VDOT(q, r, d, acc) VMULPS r, q, d; VADDPS d, acc, acc
#define SL2(q, r, acc) SUBSS r, q; MULSS q, q; ADDSS q, acc
#define SDOT(q, r, acc) MULSS r, q; ADDSS q, acc

// HREDUCE reduces one accumulator register to its lane-0 scalar sum
// ((s0+s1)+s2)+s3, using X12/X13/X14 as scratch. Lanes are extracted
// before any ADDSS touches lane 0.
#define HREDUCE(acc) \
	MOVAPS acc, X12 \
	SHUFPS $0x55, X12, X12 \
	MOVAPS acc, X13 \
	SHUFPS $0xAA, X13, X13 \
	MOVAPS acc, X14 \
	SHUFPS $0xFF, X14, X14 \
	ADDSS  X12, acc \
	ADDSS  X13, acc \
	ADDSS  X14, acc

// Stores of the finished sums: four rows of one query (STORE4), rows r and
// r+1 of four queries (STORE8).
#define STORE4 MOVSS X0, (DX); MOVSS X1, 4(DX); MOVSS X2, 8(DX); MOVSS X3, 12(DX)
#define STORE8 \
	MOVSS X0, (DX); MOVSS X4, 4(DX) \
	MOVSS X1, (R11); MOVSS X5, 4(R11) \
	MOVSS X2, (R13); MOVSS X6, 4(R13) \
	MOVSS X3, (R9); MOVSS X7, 4(R9)

// SQ8STORE is STORE8 for the SQ8 quad body, whose out pointers do not fit
// in the free registers: each is reloaded from its frame offset into R12
// and written at byte offset R11, row r+1's sum (X4-X7) four bytes on. Its
// uses sit here, before the first TEXT, because vet's asmdecl checks a
// line's (FP) references against the function the line falls in, and
// these serve two.
#define SQ8STORE(off0, off1, off2, off3) \
	MOVQ o0_base+off0(FP), R12; MOVSS X0, (R12)(R11*1); MOVSS X4, 4(R12)(R11*1) \
	MOVQ o1_base+off1(FP), R12; MOVSS X1, (R12)(R11*1); MOVSS X5, 4(R12)(R11*1) \
	MOVQ o2_base+off2(FP), R12; MOVSS X2, (R12)(R11*1); MOVSS X6, 4(R12)(R11*1) \
	MOVQ o3_base+off3(FP), R12; MOVSS X3, (R12)(R11*1); MOVSS X7, 4(R12)(R11*1)
#define SQ8L2STORE SQ8STORE(152, 176, 200, 224)
#define SQ8DOTSTORE SQ8STORE(176, 200, 224, 248)

// GATHER4LOAD loads the arguments every float gathered kernel shares (q,
// the four row addresses, out) into YGATHER4's registers, and dim &^ 3
// into R10; it sits here for the same reason.
#define GATHER4LOAD \
	MOVQ q_base+0(FP), SI \
	MOVQ q_len+8(FP), BX \
	MOVQ r0+24(FP), DI \
	MOVQ r1+32(FP), R12 \
	MOVQ r2+40(FP), R13 \
	MOVQ r3+48(FP), R14 \
	MOVQ out+56(FP), DX \
	MOVQ BX, R10 \
	ANDQ $-4, R10

#define NEG(x) XORPS X11, x
#define ONEMINUS(x) MOVAPS X10, X9; SUBSS x, X9; MOVAPS X9, x
#define EACH4(F) F(X0); F(X1); F(X2); F(X3)
#define EACH8(F) EACH4(F); F(X4); F(X5); F(X6); F(X7)

// DOTEPI applies the op in register op (1: -x, 2: 1-x, else x) to EACH
// finished sum, then STOREs them. Uses X9-X11. Sign flip by XOR and 1-x by
// SUBSS from the constant 1.0 are exact.
#define DOTEPI(op, EACH, STORE) \
	CMPQ op, $1 \
	JE   epneg \
	CMPQ op, $2 \
	JNE  epstore \
	MOVSS one32<>(SB), X10 \
	EACH(ONEMINUS) \
	JMP  epstore \
epneg: \
	MOVSS signmask32<>(SB), X11 \
	EACH(NEG) \
epstore: \
	STORE

// Float kernels: each 128-bit half of a YMM register is one row's
// four-lane accumulator, so the vector loop scores two rows at once.
// After it, each half is extracted to its own XMM register, VZEROUPPER
// returns to legacy SSE, and every row is finished by the scalar
// sequence: scalar tail into lane 0, HREDUCE, the op epilogue.

// YGATHER4 is the body for one group of four rows anywhere in memory:
// rows 0-1 in Y0 and rows 2-3 in Y2, each pair loaded from its two
// addresses into one YMM (VINSERTF128), sharing one broadcast of q[j..j+3].
// Two accumulators keep two add chains in flight. In: SI = q, DI, R12, R13,
// R14 = rows 0-3, DX = out, BX = dim, R10 = dim &^ 3. Uses R8, X0-X3,
// X6-X14.
#define YGATHER4(VSTEP, SSTEP, EPI) \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y2, Y2, Y2 \
	XORQ   R8, R8 \
	TESTQ  R10, R10 \
	JE     b4split \
b4vec: \
	VBROADCASTF128 (SI)(R8*4), Y8 \
	VMOVUPS        (DI)(R8*4), X6 \
	VINSERTF128    $1, (R12)(R8*4), Y6, Y6 \
	VSTEP(Y8, Y6, Y6, Y0) \
	VMOVUPS        (R13)(R8*4), X7 \
	VINSERTF128    $1, (R14)(R8*4), Y7, Y7 \
	VSTEP(Y8, Y7, Y7, Y2) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   b4vec \
b4split: \
	VEXTRACTF128 $1, Y0, X1 \
	VEXTRACTF128 $1, Y2, X3 \
	VZEROUPPER \
	CMPQ R8, BX \
	JGE  b4reduce \
b4tail: \
	MOVSS (SI)(R8*4), X8; MOVSS (DI)(R8*4), X9; SSTEP(X8, X9, X0) \
	MOVSS (SI)(R8*4), X8; MOVSS (R12)(R8*4), X9; SSTEP(X8, X9, X1) \
	MOVSS (SI)(R8*4), X8; MOVSS (R13)(R8*4), X9; SSTEP(X8, X9, X2) \
	MOVSS (SI)(R8*4), X8; MOVSS (R14)(R8*4), X9; SSTEP(X8, X9, X3) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   b4tail \
b4reduce: \
	EACH4(HREDUCE) \
	EPI

// BLOCK4 is the single-query body: CX groups of four consecutive rows,
// each group YGATHER4 at a stride of one row. In: SI = q, DI = block,
// DX = out, BX = dim, CX = groups. Uses R8, R10-R14, X0-X3, X6-X14.
#define BLOCK4(VSTEP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	MOVQ BX, R11 \
	SHLQ $2, R11 \
b4group: \
	LEAQ (DI)(R11*1), R12 \
	LEAQ (R12)(R11*1), R13 \
	LEAQ (R13)(R11*1), R14 \
	YGATHER4(VSTEP, SSTEP, EPI) \
	ADDQ $16, DX \
	LEAQ (DI)(R11*4), DI \
	DECQ CX \
	JNZ  b4group

// MULTI2 is the quad body: CX pairs of rows against four queries, the
// pair's first row (DI) in the low and its second (R12) in the high half
// of one shared load (Y8), each query broadcast to both halves, one
// accumulator per query (Y0-Y3). Both row pointers step two rows a pair,
// so R12 = DI + one row walks consecutive pairs and R12 = DI scores one
// row in both halves. In: SI, R14, R15, AX = q0..q3; DI = block;
// R12 = the first pair's second row; DX, R11, R13, R9 = o0..o3; BX = dim;
// CX = pairs. Uses R8, R10, X0-X14.
#define MULTI2(VSTEP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
m2pair: \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	XORQ   R8, R8 \
	TESTQ  R10, R10 \
	JE     m2split \
m2vec: \
	VMOVUPS        (DI)(R8*4), X8 \
	VINSERTF128    $1, (R12)(R8*4), Y8, Y8 \
	VBROADCASTF128 (SI)(R8*4), Y9 \
	VSTEP(Y9, Y8, Y9, Y0) \
	VBROADCASTF128 (R14)(R8*4), Y10 \
	VSTEP(Y10, Y8, Y10, Y1) \
	VBROADCASTF128 (R15)(R8*4), Y11 \
	VSTEP(Y11, Y8, Y11, Y2) \
	VBROADCASTF128 (AX)(R8*4), Y12 \
	VSTEP(Y12, Y8, Y12, Y3) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   m2vec \
m2split: \
	VEXTRACTF128 $1, Y0, X4 \
	VEXTRACTF128 $1, Y1, X5 \
	VEXTRACTF128 $1, Y2, X6 \
	VEXTRACTF128 $1, Y3, X7 \
	VZEROUPPER \
	CMPQ R8, BX \
	JGE  m2reduce \
m2tail: \
	MOVSS (DI)(R8*4), X8; MOVSS (R12)(R8*4), X9 \
	MOVSS (SI)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X0); SSTEP(X11, X9, X4) \
	MOVSS (R14)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X1); SSTEP(X11, X9, X5) \
	MOVSS (R15)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X2); SSTEP(X11, X9, X6) \
	MOVSS (AX)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X3); SSTEP(X11, X9, X7) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   m2tail \
m2reduce: \
	EACH8(HREDUCE) \
	EPI \
	ADDQ $8, DX \
	ADDQ $8, R11 \
	ADDQ $8, R13 \
	ADDQ $8, R9 \
	LEAQ (DI)(BX*8), DI \
	LEAQ (R12)(BX*8), R12 \
	DECQ CX \
	JNZ  m2pair

// func l2BlockAVX2(q, block, out []float32)
TEXT ·l2BlockAVX2(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), CX
	SHRQ $2, CX
	BLOCK4(VL2, SL2, STORE4)
	RET

// func dotBlockAVX2(q, block, out []float32, op int64)
// q: dim floats; block: len(out)*dim floats; op: 0 dot, 1 -dot, 2 1-dot.
#define DOTEPI4 DOTEPI(R9, EACH4, STORE4)
TEXT ·dotBlockAVX2(SB), NOSPLIT, $0-80
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), CX
	MOVQ op+72(FP), R9
	SHRQ $2, CX
	BLOCK4(VDOT, SDOT, DOTEPI4)
	RET

// func l2Multi4AVX2(q0, q1, q2, q3, block []float32, hi *float32, o0, o1, o2, o3 []float32)
// Four queries share each row load: the row tile is streamed once and
// reused across the quad.
TEXT ·l2Multi4AVX2(SB), NOSPLIT, $0-224
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ hi+120(FP), R12
	MOVQ o0_base+128(FP), DX
	MOVQ o0_len+136(FP), CX
	MOVQ o1_base+152(FP), R11
	MOVQ o2_base+176(FP), R13
	MOVQ o3_base+200(FP), R9
	SHRQ $1, CX
	MULTI2(VL2, SL2, STORE8)
	RET

// func dotMulti4AVX2(q0, q1, q2, q3, block []float32, hi *float32, o0, o1, o2, o3 []float32, op int64)
// Every GP register is taken, so op waits in X15 until the epilogue,
// which has R8 free.
#define DOTEPI8 MOVQ X15, R8; DOTEPI(R8, EACH8, STORE8)
TEXT ·dotMulti4AVX2(SB), NOSPLIT, $0-232
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ op+224(FP), R12
	MOVQ R12, X15
	MOVQ hi+120(FP), R12
	MOVQ o0_base+128(FP), DX
	MOVQ o0_len+136(FP), CX
	MOVQ o1_base+152(FP), R11
	MOVQ o2_base+176(FP), R13
	MOVQ o3_base+200(FP), R9
	SHRQ $1, CX
	MULTI2(VDOT, SDOT, DOTEPI8)
	RET

// The gathered kernels: q against four rows given by address, the form a
// graph walk and a block's padded final group need. Their arguments load
// as GATHER4LOAD says (above the first TEXT, for vet); the dot kernels
// read op into R9 for DOTEPI4.

// func l2Gather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32)
TEXT ·l2Gather4AVX2(SB), NOSPLIT, $0-64
	GATHER4LOAD
	YGATHER4(VL2, SL2, STORE4)
	RET

// func dotGather4AVX2(q []float32, r0, r1, r2, r3 *float32, out *[4]float32, op int64)
TEXT ·dotGather4AVX2(SB), NOSPLIT, $0-72
	GATHER4LOAD
	MOVQ op+64(FP), R9
	YGATHER4(VDOT, SDOT, DOTEPI4)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
// XCR0's low word. Callers check CPUID's OSXSAVE bit first.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// SQ8 byte-domain kernels: the float bodies with the decode in front of
// the step. Four code bytes of each row of a pair load with one VMOVD
// (VPINSRD for the second row), widen u8→s32 (VPMOVZXBD), convert
// (VCVTDQ2PS) and scale with one VMULPS, so lane l holds the decoded
// element at index ≡ l mod 4, the same split as the float kernels, and
// every downstream op (the float steps, scalar tail into lane 0, HREDUCE,
// DOTEPI) matches the portable contract in kernels_sq8.go bitwise.

// YDECODE decodes codes[j..j+3] (j = R8) of the row at lo into the low
// half of y and those of the row at hi into the high half, each multiplied
// by scale[j..j+3], broadcast to both halves in Y9. x is y's low half.
#define YDECODE(lo, hi, x, y) \
	VMOVD     (lo)(R8*1), x \
	VPINSRD   $1, (hi)(R8*1), x, x \
	VPMOVZXBD x, y \
	VCVTDQ2PS y, y \
	VMULPS    Y9, y, y

// SDECODE decodes codes[j] of the row at row into t through the GP
// register gp.
#define SDECODE(row, gp, t) \
	MOVBLZX  (row)(R8*1), gp \
	CVTSL2SS gp, t \
	MULSS    (R15)(R8*4), t

// PREP turns a decoded t into what every query of the row is scored
// against. Dot rebuilds rec = min + t (R9 = min): SMINADD on one scalar,
// YMINADD on a YMM row pair from the min[j..j+3] YMINLD broadcast into Y10
// once per step. L2 scores the hoisted residual r = q - min against t
// itself, so it has NOPREP.
#define SMINADD(t) ADDSS (R9)(R8*4), t
#define YMINLD(m) VBROADCASTF128 (R9)(R8*4), m
#define YMINADD(t) VADDPS Y10, t, t
#define NOPREP(t)

// SQ8GATHER4 is the SQ8 body for one group of four code rows anywhere in
// memory: rows 0-1 in Y0 and rows 2-3 in Y2, sharing one broadcast of
// q[j..j+3] (Y8), scale (Y9) and min (Y10, dot only) per step. In: SI = q
// (r for L2), DI, R12, R13, R14 = rows 0-3, R15 = scale, R9 = min,
// DX = out, BX = dim, R10 = dim &^ 3. Uses AX, R8, X0-X14.
#define SQ8GATHER4(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y2, Y2, Y2 \
	XORQ   R8, R8 \
	TESTQ  R10, R10 \
	JE     s4split \
s4vec: \
	VBROADCASTF128 (SI)(R8*4), Y8 \
	VBROADCASTF128 (R15)(R8*4), Y9 \
	VLOAD(Y10) \
	YDECODE(DI, R12, X6, Y6); VPREP(Y6); VSTEP(Y8, Y6, Y6, Y0) \
	YDECODE(R13, R14, X7, Y7); VPREP(Y7); VSTEP(Y8, Y7, Y7, Y2) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   s4vec \
s4split: \
	VEXTRACTF128 $1, Y0, X1 \
	VEXTRACTF128 $1, Y2, X3 \
	VZEROUPPER \
	CMPQ R8, BX \
	JGE  s4reduce \
s4tail: \
	SDECODE(DI, AX, X4); SPREP(X4); MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X0) \
	SDECODE(R12, AX, X4); SPREP(X4); MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X1) \
	SDECODE(R13, AX, X4); SPREP(X4); MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X2) \
	SDECODE(R14, AX, X4); SPREP(X4); MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X3) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   s4tail \
s4reduce: \
	EACH4(HREDUCE) \
	EPI

// SQ8BLOCK4 is the SQ8 single-query body: CX groups of four consecutive
// code rows, each group SQ8GATHER4 at a stride of one row. In: SI = q
// (r for L2), DI = codes, R15 = scale, R9 = min, DX = out, BX = dim,
// CX = groups. Uses AX, R8, R10, R12-R14, X0-X14.
#define SQ8BLOCK4(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	PCALIGN $64 \
s4group: \
	LEAQ (DI)(BX*1), R12 \
	LEAQ (R12)(BX*1), R13 \
	LEAQ (R13)(BX*1), R14 \
	SQ8GATHER4(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	ADDQ $16, DX \
	LEAQ (DI)(BX*4), DI \
	DECQ CX \
	JNZ  s4group

// SQ8MULTI2 is the SQ8 quad body: CX pairs of code rows against four
// queries, the pair's first row (DI) in the low and its second (AX) in the
// high half of one decoded pair (Y8), each query broadcast to both halves,
// one accumulator per query (Y0-Y3). As in MULTI2, both row pointers step
// two rows a pair. In: SI, R14, R13, DX = q0..q3 (r0..r3 for L2);
// DI = codes; AX = the first pair's second row; R15 = scale; R9 = min;
// BX = dim; CX = pairs. R11 is the pair's byte offset into every out
// slice. Uses R8, R10-R12, X0-X14.
#define SQ8MULTI2(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	XORQ R11, R11 \
	PCALIGN $64 \
q2pair: \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	XORQ   R8, R8 \
	TESTQ  R10, R10 \
	JE     q2split \
q2vec: \
	VBROADCASTF128 (R15)(R8*4), Y9 \
	VLOAD(Y10) \
	YDECODE(DI, AX, X8, Y8); VPREP(Y8) \
	VBROADCASTF128 (SI)(R8*4), Y11; VSTEP(Y11, Y8, Y11, Y0) \
	VBROADCASTF128 (R14)(R8*4), Y12; VSTEP(Y12, Y8, Y12, Y1) \
	VBROADCASTF128 (R13)(R8*4), Y13; VSTEP(Y13, Y8, Y13, Y2) \
	VBROADCASTF128 (DX)(R8*4), Y14; VSTEP(Y14, Y8, Y14, Y3) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   q2vec \
q2split: \
	VEXTRACTF128 $1, Y0, X4 \
	VEXTRACTF128 $1, Y1, X5 \
	VEXTRACTF128 $1, Y2, X6 \
	VEXTRACTF128 $1, Y3, X7 \
	VZEROUPPER \
	CMPQ R8, BX \
	JGE  q2reduce \
q2tail: \
	SDECODE(DI, R12, X8); SPREP(X8); SDECODE(AX, R12, X9); SPREP(X9) \
	MOVSS (SI)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X0); SSTEP(X11, X9, X4) \
	MOVSS (R14)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X1); SSTEP(X11, X9, X5) \
	MOVSS (R13)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X2); SSTEP(X11, X9, X6) \
	MOVSS (DX)(R8*4), X10; MOVAPS X10, X11; SSTEP(X10, X8, X3); SSTEP(X11, X9, X7) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   q2tail \
q2reduce: \
	EACH8(HREDUCE) \
	EPI \
	ADDQ $8, R11 \
	LEAQ (DI)(BX*2), DI \
	LEAQ (AX)(BX*2), AX \
	DECQ CX \
	JNZ  q2pair

// func sq8L2BlockAVX2(r, scale []float32, codes []byte, out []float32)
// r is the hoisted residual q - min; out[i] = Σ (r[j] - b[j]*scale[j])².
TEXT ·sq8L2BlockAVX2(SB), NOSPLIT, $0-96
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), BX
	MOVQ scale_base+24(FP), R15
	MOVQ codes_base+48(FP), DI
	MOVQ out_base+72(FP), DX
	MOVQ out_len+80(FP), CX
	SHRQ $2, CX
	SQ8BLOCK4(NOPREP, NOPREP, VL2, NOPREP, SL2, STORE4)
	RET

// func sq8DotBlockAVX2(q, min, scale []float32, codes []byte, out []float32, op int64)
// out[i] = op(Σ q[j] * (min[j] + b[j]*scale[j])).
#define SQ8DOTEPI4 DOTEPI(R11, EACH4, STORE4)
TEXT ·sq8DotBlockAVX2(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ min_base+24(FP), R9
	MOVQ scale_base+48(FP), R15
	MOVQ codes_base+72(FP), DI
	MOVQ out_base+96(FP), DX
	MOVQ out_len+104(FP), CX
	MOVQ op+120(FP), R11
	SHRQ $2, CX
	SQ8BLOCK4(YMINLD, YMINADD, VDOT, SMINADD, SDOT, SQ8DOTEPI4)
	RET

// func sq8L2Gather4AVX2(r, scale []float32, c0, c1, c2, c3 *byte, out *[4]float32)
TEXT ·sq8L2Gather4AVX2(SB), NOSPLIT, $0-88
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), BX
	MOVQ scale_base+24(FP), R15
	MOVQ c0+48(FP), DI
	MOVQ c1+56(FP), R12
	MOVQ c2+64(FP), R13
	MOVQ c3+72(FP), R14
	MOVQ out+80(FP), DX
	MOVQ BX, R10
	ANDQ $-4, R10
	SQ8GATHER4(NOPREP, NOPREP, VL2, NOPREP, SL2, STORE4)
	RET

// func sq8DotGather4AVX2(q, min, scale []float32, c0, c1, c2, c3 *byte, out *[4]float32, op int64)
TEXT ·sq8DotGather4AVX2(SB), NOSPLIT, $0-120
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ min_base+24(FP), R9
	MOVQ scale_base+48(FP), R15
	MOVQ c0+72(FP), DI
	MOVQ c1+80(FP), R12
	MOVQ c2+88(FP), R13
	MOVQ c3+96(FP), R14
	MOVQ out+104(FP), DX
	MOVQ op+112(FP), R11
	MOVQ BX, R10
	ANDQ $-4, R10
	SQ8GATHER4(YMINLD, YMINADD, VDOT, SMINADD, SDOT, SQ8DOTEPI4)
	RET

// func sq8L2Multi4AVX2(r0, r1, r2, r3, scale []float32, codes []byte, hi *byte, o0, o1, o2, o3 []float32)
TEXT ·sq8L2Multi4AVX2(SB), NOSPLIT, $0-248
	MOVQ r0_base+0(FP), SI
	MOVQ r0_len+8(FP), BX
	MOVQ r1_base+24(FP), R14
	MOVQ r2_base+48(FP), R13
	MOVQ r3_base+72(FP), DX
	MOVQ scale_base+96(FP), R15
	MOVQ codes_base+120(FP), DI
	MOVQ hi+144(FP), AX
	MOVQ o0_len+160(FP), CX
	SHRQ $1, CX
	SQ8MULTI2(NOPREP, NOPREP, VL2, NOPREP, SL2, SQ8L2STORE)
	RET

// func sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale []float32, codes []byte, hi *byte, o0, o1, o2, o3 []float32, op int64)
// Every GP register is taken, so op waits in X15 until the epilogue.
#define SQ8DOTEPI8 MOVQ X15, R12; DOTEPI(R12, EACH8, SQ8DOTSTORE)
TEXT ·sq8DotMulti4AVX2(SB), NOSPLIT, $0-280
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R13
	MOVQ q3_base+72(FP), DX
	MOVQ min_base+96(FP), R9
	MOVQ scale_base+120(FP), R15
	MOVQ codes_base+144(FP), DI
	MOVQ hi+168(FP), AX
	MOVQ o0_len+184(FP), CX
	MOVQ op+272(FP), R12
	MOVQ R12, X15
	SHRQ $1, CX
	SQ8MULTI2(YMINLD, YMINADD, VDOT, SMINADD, SDOT, SQ8DOTEPI8)
	RET

// func pqScan8SSE(table []float32, codes []byte, m, ksub int64, out []float32)
//
// Narrow (1-byte) ADC scan: out[i] = Σ_j table[j*ksub + codes[i*m+j]]
// under the mod-4 contract — quad-unrolled body with lane j&3, scalar
// tail into lane 0, reduced ((s0+s1)+s2)+s3. SSE2 has no gather, so the
// per-element loads are scalar; the kernel's advantage over the Go loop
// is gather addressing with no per-element bounds checks. The dispatch
// wrapper guarantees table covers (m-1)*ksub+255 and codes holds
// len(out)*m bytes.
//
// SI = table, DI = codes cursor (advances m per row), DX = out cursor,
// CX = remaining rows, BX = m, R9 = body (m &^ 3), R8 = ksub*4 (table
// stripe stride in bytes), R10 = stripe cursor, R11 = j, AX = code.
TEXT ·pqScan8SSE(SB), NOSPLIT, $0-88
	MOVQ table_base+0(FP), SI
	MOVQ codes_base+24(FP), DI
	MOVQ m+48(FP), BX
	MOVQ ksub+56(FP), R8
	MOVQ out_base+64(FP), DX
	MOVQ out_len+72(FP), CX
	SHLQ $2, R8           // ksub -> byte stride of one table stripe
	MOVQ BX, R9
	ANDQ $~3, R9          // body = m &^ 3

pqrow:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R10
	XORQ  R11, R11
	CMPQ  R9, $0
	JE    pqtail

pqbody:
	MOVBLZX (DI)(R11*1), AX
	MOVSS   (R10)(AX*4), X4
	ADDSS   X4, X0
	ADDQ    R8, R10
	MOVBLZX 1(DI)(R11*1), AX
	MOVSS   (R10)(AX*4), X5
	ADDSS   X5, X1
	ADDQ    R8, R10
	MOVBLZX 2(DI)(R11*1), AX
	MOVSS   (R10)(AX*4), X4
	ADDSS   X4, X2
	ADDQ    R8, R10
	MOVBLZX 3(DI)(R11*1), AX
	MOVSS   (R10)(AX*4), X5
	ADDSS   X5, X3
	ADDQ    R8, R10
	ADDQ    $4, R11
	CMPQ    R11, R9
	JLT     pqbody

pqtail:
	CMPQ R11, BX
	JGE  pqreduce
	MOVBLZX (DI)(R11*1), AX
	MOVSS   (R10)(AX*4), X4
	ADDSS   X4, X0
	ADDQ    R8, R10
	INCQ    R11
	JMP     pqtail

pqreduce:
	ADDSS X1, X0
	ADDSS X2, X0
	ADDSS X3, X0
	MOVSS X0, (DX)
	ADDQ  $4, DX
	ADDQ  BX, DI
	DECQ  CX
	JNZ   pqrow
	RET
