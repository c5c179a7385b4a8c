//go:build amd64 && !purego

#include "textflag.h"

// SSE2 and AVX2 distance kernels. The bit-identity contract (see
// kernels.go): XMM lane l holds partial sum s_l (elements at indices ≡ l
// mod 4), the scalar tail accumulates into lane 0, and the reduce is the
// scalar chain ((s0+s1)+s2)+s3. MULPS/ADDPS/SUBPS round each lane exactly
// like the corresponding scalar ops, so every output is bitwise equal to
// the portable Go kernels. A wider register may carry more rows — the
// AVX2 bodies put two rows' s0..s3 side by side in one YMM — but one
// row's sums are never split across more than four lanes, and FMA is not
// used: a different accumulator split or fused rounding would both break
// the contract.
//
// Each kernel shape is written once per register width, as a body macro:
// BLOCK1, MULTI4 and GATHER4 (SSE float), YGATHER4 — which BLOCK4 runs
// once per group of consecutive rows — and MULTI2 (AVX2 float), SQ8BLOCK1
// and SQ8MULTI4 (SSE SQ8), SQ8BLOCK4 and SQ8MULTI2 (AVX2 SQ8).
// A body takes the metric as step macros and its ending as an epilogue
// macro, so a TEXT symbol is its argument loads plus one body call.
// HREDUCE is the only reduce and DOTEPI the only op epilogue. Every
// kernel assumes at least one row: the Go wrappers return before calling
// with none.
//
// Each SSE and SQ8 body starts its row loop on a 64-byte line (PCALIGN),
// which fixes where its vector loop falls in the instruction cache
// wherever the linker places the function. The SQ8 scan's speed depends
// on that placement: moved by code elsewhere in this file, with not one of
// its own instructions changed, it cost the engine's IVF_SQ8 search about
// a tenth of its rate on a 2-vCPU Sapphire Rapids guest. BLOCK4 and
// MULTI2 stay unaligned: aligned, the IVF_FLAT scan ran slower in four of
// five paired runs. The gathered bodies score one group per call and have
// no row loop to align.

DATA signmask32<>+0(SB)/4, $0x80000000
GLOBL signmask32<>(SB), RODATA|NOPTR, $4

DATA one32<>+0(SB)/4, $0x3F800000
GLOBL one32<>(SB), RODATA|NOPTR, $4

// Steps: the difference or product of a query and a row lands in a
// register (q, or d on a YMM pair), which then adds into acc — operand
// order as in the portable kernels: d = q - row, p = q * row,
// acc = acc + x. P* act on a packed XMM, V* on a YMM row pair, S* on one
// scalar tail element.
#define PL2(q, r, acc) SUBPS r, q; MULPS q, q; ADDPS q, acc
#define PDOT(q, r, acc) MULPS r, q; ADDPS q, acc
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

// Stores of the finished sums: one row of one query (STORE1), one row of
// four queries (STORE4Q), four rows of one query (STORE4), rows r and r+1
// of four queries (STORE8).
#define STORE1 MOVSS X0, (DX)
#define STORE4Q MOVSS X0, (DX); MOVSS X1, (R11); MOVSS X2, (R13); MOVSS X3, (R9)
#define STORE4 MOVSS X0, (DX); MOVSS X1, 4(DX); MOVSS X2, 8(DX); MOVSS X3, 12(DX)
#define STORE8 \
	MOVSS X0, (DX); MOVSS X4, 4(DX) \
	MOVSS X1, (R11); MOVSS X5, 4(R11) \
	MOVSS X2, (R13); MOVSS X6, 4(R13) \
	MOVSS X3, (R9); MOVSS X7, 4(R9)

// SQ8STORE is STORE4Q (STORE8 with NEXT = ROW1) for the SQ8 quad bodies,
// whose out pointers do not fit in the free registers: each is reloaded
// from its frame offset into R12 and written at byte offset R11, row r+1's
// sum (X4-X7) four bytes on. Its uses sit here, before the first TEXT,
// because vet's asmdecl checks a line's (FP) references against the
// function the line falls in, and these serve four.
#define NOROW1(x)
#define ROW1(x) MOVSS x, 4(R12)(R11*1)
#define SQ8STORE(off0, off1, off2, off3, NEXT) \
	MOVQ o0_base+off0(FP), R12; MOVSS X0, (R12)(R11*1); NEXT(X4) \
	MOVQ o1_base+off1(FP), R12; MOVSS X1, (R12)(R11*1); NEXT(X5) \
	MOVQ o2_base+off2(FP), R12; MOVSS X2, (R12)(R11*1); NEXT(X6) \
	MOVQ o3_base+off3(FP), R12; MOVSS X3, (R12)(R11*1); NEXT(X7)
#define SQ8L2STORE SQ8STORE(144, 168, 192, 216, NOROW1)
#define SQ8DOTSTORE SQ8STORE(168, 192, 216, 240, NOROW1)
#define SQ8L2STORE8 SQ8STORE(144, 168, 192, 216, ROW1)
#define SQ8DOTSTORE8 SQ8STORE(168, 192, 216, 240, ROW1)

// GATHER4LOAD loads the arguments every gathered kernel shares (q, the
// four row addresses, out) into GATHER4's and YGATHER4's registers, and
// dim &^ 3 into R10; it sits here for the same reason.
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
#define EACH1(F) F(X0)
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

// The SSE dot kernels read op from R12 (the SQ8 quad parks it in X15).
#define DOTEPI1 DOTEPI(R12, EACH1, STORE1)

// BLOCK1 is the SSE single-query body: CX rows, one XMM accumulator (X0).
// In: SI = q, DI = block, DX = out, BX = dim, CX = rows. Uses R8, R10,
// X0-X2, X9-X14.
#define BLOCK1(PSTEP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	PCALIGN $64 \
b1row: \
	XORPS X0, X0 \
	XORQ  R8, R8 \
	TESTQ R10, R10 \
	JE    b1tail \
b1vec: \
	MOVUPS (SI)(R8*4), X1; MOVUPS (DI)(R8*4), X2; PSTEP(X1, X2, X0) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   b1vec \
b1tail: \
	CMPQ R8, BX \
	JGE  b1reduce \
b1tailloop: \
	MOVSS (SI)(R8*4), X1; MOVSS (DI)(R8*4), X2; SSTEP(X1, X2, X0) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   b1tailloop \
b1reduce: \
	HREDUCE(X0) \
	EPI \
	ADDQ $4, DX \
	LEAQ (DI)(BX*4), DI \
	DECQ CX \
	JNZ  b1row

// MULTI4 is the SSE quad body: CX rows against four queries, each row
// loaded once (X4) and shared by one accumulator per query (X0-X3). In:
// SI, R14, R15, AX = q0..q3; DI = block; DX, R11, R13, R9 = o0..o3;
// BX = dim; CX = rows. Uses R8, R10, X0-X5, X9-X14.
#define MULTI4(PSTEP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	PCALIGN $64 \
m4row: \
	XORPS X0, X0 \
	XORPS X1, X1 \
	XORPS X2, X2 \
	XORPS X3, X3 \
	XORQ  R8, R8 \
	TESTQ R10, R10 \
	JE    m4tail \
m4vec: \
	MOVUPS (DI)(R8*4), X4 \
	MOVUPS (SI)(R8*4), X5; PSTEP(X5, X4, X0) \
	MOVUPS (R14)(R8*4), X5; PSTEP(X5, X4, X1) \
	MOVUPS (R15)(R8*4), X5; PSTEP(X5, X4, X2) \
	MOVUPS (AX)(R8*4), X5; PSTEP(X5, X4, X3) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   m4vec \
m4tail: \
	CMPQ R8, BX \
	JGE  m4reduce \
m4tailloop: \
	MOVSS (DI)(R8*4), X4 \
	MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X0) \
	MOVSS (R14)(R8*4), X5; SSTEP(X5, X4, X1) \
	MOVSS (R15)(R8*4), X5; SSTEP(X5, X4, X2) \
	MOVSS (AX)(R8*4), X5; SSTEP(X5, X4, X3) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   m4tailloop \
m4reduce: \
	EACH4(HREDUCE) \
	EPI \
	ADDQ $4, DX \
	ADDQ $4, R11 \
	ADDQ $4, R13 \
	ADDQ $4, R9 \
	LEAQ (DI)(BX*4), DI \
	DECQ CX \
	JNZ  m4row

// GATHER4 is the SSE gathered body: one query against four rows anywhere
// in memory, one XMM accumulator per row (X0-X3), q loaded once per step
// (X4) and copied into each row's step. In: SI = q, DI, R12, R13, R14 =
// rows 0-3, DX = out, BX = dim, R10 = dim &^ 3. Uses R8, X0-X6, X9-X14.
#define GATHER4(PSTEP, SSTEP, EPI) \
	XORPS X0, X0 \
	XORPS X1, X1 \
	XORPS X2, X2 \
	XORPS X3, X3 \
	XORQ  R8, R8 \
	TESTQ R10, R10 \
	JE    g4tail \
g4vec: \
	MOVUPS (SI)(R8*4), X4 \
	MOVAPS X4, X5; MOVUPS (DI)(R8*4), X6; PSTEP(X5, X6, X0) \
	MOVAPS X4, X5; MOVUPS (R12)(R8*4), X6; PSTEP(X5, X6, X1) \
	MOVAPS X4, X5; MOVUPS (R13)(R8*4), X6; PSTEP(X5, X6, X2) \
	MOVAPS X4, X5; MOVUPS (R14)(R8*4), X6; PSTEP(X5, X6, X3) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   g4vec \
g4tail: \
	CMPQ R8, BX \
	JGE  g4reduce \
g4tailloop: \
	MOVSS (SI)(R8*4), X4 \
	MOVAPS X4, X5; MOVSS (DI)(R8*4), X6; SSTEP(X5, X6, X0) \
	MOVAPS X4, X5; MOVSS (R12)(R8*4), X6; SSTEP(X5, X6, X1) \
	MOVAPS X4, X5; MOVSS (R13)(R8*4), X6; SSTEP(X5, X6, X2) \
	MOVAPS X4, X5; MOVSS (R14)(R8*4), X6; SSTEP(X5, X6, X3) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   g4tailloop \
g4reduce: \
	EACH4(HREDUCE) \
	EPI

// func l2BlockSSE(q, block, out []float32)
TEXT ·l2BlockSSE(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), CX
	BLOCK1(PL2, SL2, STORE1)
	RET

// func dotBlockSSE(q, block, out []float32, op int64)
// q: dim floats; block: len(out)*dim floats; op: 0 dot, 1 -dot, 2 1-dot.
TEXT ·dotBlockSSE(SB), NOSPLIT, $0-80
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), CX
	MOVQ op+72(FP), R12
	BLOCK1(PDOT, SDOT, DOTEPI1)
	RET

// func l2Multi4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32)
// Four queries share each row load: the row tile is streamed once and
// reused across the quad. Per query the arithmetic is l2BlockSSE's.
TEXT ·l2Multi4SSE(SB), NOSPLIT, $0-216
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ o0_base+120(FP), DX
	MOVQ o0_len+128(FP), CX
	MOVQ o1_base+144(FP), R11
	MOVQ o2_base+168(FP), R13
	MOVQ o3_base+192(FP), R9
	MULTI4(PL2, SL2, STORE4Q)
	RET

// func dotMulti4SSE(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32, op int64)
#define DOTEPI4Q DOTEPI(R12, EACH4, STORE4Q)
TEXT ·dotMulti4SSE(SB), NOSPLIT, $0-224
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ o0_base+120(FP), DX
	MOVQ o0_len+128(FP), CX
	MOVQ o1_base+144(FP), R11
	MOVQ o2_base+168(FP), R13
	MOVQ o3_base+192(FP), R9
	MOVQ op+216(FP), R12
	MULTI4(PDOT, SDOT, DOTEPI4Q)
	RET

// AVX2 float kernels: each 128-bit half of a YMM register is one row's
// XMM accumulator of the SSE bodies above, so the vector loop is the SSE
// loop run on two rows at once. After it, each half is extracted to its
// own XMM register, VZEROUPPER returns to legacy SSE, and every row is
// finished by the SSE sequence: scalar tail into lane 0, HREDUCE, the op
// epilogue. The Go wrappers pass whole groups only; the rows left over go
// to the SSE bodies.

// YGATHER4 is the AVX2 body for one group of four rows anywhere in
// memory: rows 0-1 in Y0 and rows 2-3 in Y2, each pair loaded from its two
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

// MULTI2 is the quad body: CX pairs of rows against four queries, row r
// in the low and row r+1 in the high half of one shared load (Y8), each
// query broadcast to both halves, one accumulator per query (Y0-Y3). In:
// SI, R14, R15, AX = q0..q3; DI = block; DX, R11, R13, R9 = o0..o3;
// BX = dim; CX = pairs. Uses R8, R10, R12, X0-X14.
#define MULTI2(VSTEP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
m2pair: \
	LEAQ   (DI)(BX*4), R12 \
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

// func l2Multi4AVX2(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32)
TEXT ·l2Multi4AVX2(SB), NOSPLIT, $0-216
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ o0_base+120(FP), DX
	MOVQ o0_len+128(FP), CX
	MOVQ o1_base+144(FP), R11
	MOVQ o2_base+168(FP), R13
	MOVQ o3_base+192(FP), R9
	SHRQ $1, CX
	MULTI2(VL2, SL2, STORE8)
	RET

// func dotMulti4AVX2(q0, q1, q2, q3, block, o0, o1, o2, o3 []float32, op int64)
// Every GP register is taken, so op waits in X15 until the epilogue.
#define DOTEPI8 MOVQ X15, R12; DOTEPI(R12, EACH8, STORE8)
TEXT ·dotMulti4AVX2(SB), NOSPLIT, $0-224
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R15
	MOVQ q3_base+72(FP), AX
	MOVQ block_base+96(FP), DI
	MOVQ o0_base+120(FP), DX
	MOVQ o0_len+128(FP), CX
	MOVQ o1_base+144(FP), R11
	MOVQ o2_base+168(FP), R13
	MOVQ o3_base+192(FP), R9
	MOVQ op+216(FP), R12
	MOVQ R12, X15
	SHRQ $1, CX
	MULTI2(VDOT, SDOT, DOTEPI8)
	RET

// The gathered kernels: q against four rows given by address, the form a
// graph walk needs. Their arguments load as GATHER4LOAD says (above the
// first TEXT, for vet); the dot kernels read op into R9 for DOTEPI4.

// func l2Gather4SSE(q []float32, r0, r1, r2, r3 *float32, out *[4]float32)
TEXT ·l2Gather4SSE(SB), NOSPLIT, $0-64
	GATHER4LOAD
	GATHER4(PL2, SL2, STORE4)
	RET

// func dotGather4SSE(q []float32, r0, r1, r2, r3 *float32, out *[4]float32, op int64)
TEXT ·dotGather4SSE(SB), NOSPLIT, $0-72
	GATHER4LOAD
	MOVQ op+64(FP), R9
	GATHER4(PDOT, SDOT, DOTEPI4)
	RET

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

// SQ8 byte-domain kernels. The decode runs in-register: four code bytes
// load with one MOVL, widen u8→s32 (PUNPCKLBW/PUNPCKLWL against zero),
// convert with CVTPL2PS, and scale with one MULPS — so lane l holds the
// decoded element at index ≡ l mod 4, the same split as the float
// kernels, and every downstream op (the float steps, scalar tail into
// lane 0, HREDUCE, DOTEPI) matches the portable contract in
// kernels_sq8.go bitwise.

// VDECODE decodes codes[j..j+3] (j = R8) into t = float32(code)*scale in
// X4. In: DI = codes, R15 = scale, X6 = 0. Uses AX, X5.
#define VDECODE \
	MOVL      (DI)(R8*1), AX \
	MOVQ      AX, X4 \
	PUNPCKLBW X6, X4 \
	PUNPCKLWL X6, X4 \
	CVTPL2PS  X4, X4 \
	MOVUPS    (R15)(R8*4), X5 \
	MULPS     X5, X4

// YDECODE is VDECODE for a YMM row pair: codes[j..j+3] of the row at lo
// land in the low half of y and those of the row at hi in the high half,
// each multiplied by scale[j..j+3], broadcast to both halves in Y9. x is
// y's low half.
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
// against. Dot rebuilds rec = min + t (R9 = min): VMINADD on a packed XMM
// (X5 scratch), SMINADD on one scalar, YMINADD on a YMM row pair from the
// min[j..j+3] YMINLD broadcast into Y10 once per step. L2 scores the
// hoisted residual r = q - min against t itself, so it has NOPREP.
#define VMINADD(t) MOVUPS (R9)(R8*4), X5; ADDPS X5, t
#define SMINADD(t) ADDSS (R9)(R8*4), t
#define YMINLD(m) VBROADCASTF128 (R9)(R8*4), m
#define YMINADD(t) VADDPS Y10, t, t
#define NOPREP(t)

// SQ8BLOCK1 is the SQ8 single-query body: CX code rows, one XMM
// accumulator (X0). In: SI = q (r for L2), DI = codes, R15 = scale,
// R9 = min, DX = out, BX = dim, CX = rows. Uses AX, R8, R10, X0, X4-X6,
// X9-X14.
#define SQ8BLOCK1(VPREP, VSTEP, SPREP, SSTEP, EPI) \
	PXOR X6, X6 \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	PCALIGN $64 \
s1row: \
	XORPS X0, X0 \
	XORQ  R8, R8 \
	TESTQ R10, R10 \
	JE    s1tail \
s1vec: \
	VDECODE \
	VPREP(X4) \
	MOVUPS (SI)(R8*4), X5; VSTEP(X5, X4, X0) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   s1vec \
s1tail: \
	CMPQ R8, BX \
	JGE  s1reduce \
s1tailloop: \
	SDECODE(DI, AX, X4) \
	SPREP(X4) \
	MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X0) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   s1tailloop \
s1reduce: \
	HREDUCE(X0) \
	EPI \
	ADDQ $4, DX \
	LEAQ (DI)(BX*1), DI \
	DECQ CX \
	JNZ  s1row

// SQ8MULTI4 is the SQ8 quad body: each code row is decoded once (X4) and
// scored against four queries, so the widen + scale multiply — the
// dominant per-element cost of a byte scan — is paid once per row instead
// of once per (query, row). In: SI, R14, R13, DX = q0..q3 (r0..r3 for
// L2); DI = codes; R15 = scale; R9 = min; BX = dim; CX = rows. R11 is the
// current row's byte offset into every out slice. Uses AX, R8, R10-R12,
// X0-X6, X9-X14.
#define SQ8MULTI4(VPREP, VSTEP, SPREP, SSTEP, EPI) \
	PXOR X6, X6 \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	XORQ R11, R11 \
	PCALIGN $64 \
q8row: \
	XORPS X0, X0 \
	XORPS X1, X1 \
	XORPS X2, X2 \
	XORPS X3, X3 \
	XORQ  R8, R8 \
	TESTQ R10, R10 \
	JE    q8tail \
q8vec: \
	VDECODE \
	VPREP(X4) \
	MOVUPS (SI)(R8*4), X5; VSTEP(X5, X4, X0) \
	MOVUPS (R14)(R8*4), X5; VSTEP(X5, X4, X1) \
	MOVUPS (R13)(R8*4), X5; VSTEP(X5, X4, X2) \
	MOVUPS (DX)(R8*4), X5; VSTEP(X5, X4, X3) \
	ADDQ $4, R8 \
	CMPQ R8, R10 \
	JL   q8vec \
q8tail: \
	CMPQ R8, BX \
	JGE  q8reduce \
q8tailloop: \
	SDECODE(DI, AX, X4) \
	SPREP(X4) \
	MOVSS (SI)(R8*4), X5; SSTEP(X5, X4, X0) \
	MOVSS (R14)(R8*4), X5; SSTEP(X5, X4, X1) \
	MOVSS (R13)(R8*4), X5; SSTEP(X5, X4, X2) \
	MOVSS (DX)(R8*4), X5; SSTEP(X5, X4, X3) \
	INCQ R8 \
	CMPQ R8, BX \
	JL   q8tailloop \
q8reduce: \
	EACH4(HREDUCE) \
	EPI \
	ADDQ $4, R11 \
	LEAQ (DI)(BX*1), DI \
	DECQ CX \
	JNZ  q8row

// The AVX2 SQ8 bodies are BLOCK4 and MULTI2 with YDECODE in front of the
// step: one decoded row pair per YMM, the SSE tail, reduce and epilogue
// after it.

// SQ8BLOCK4 is the single-query body: CX groups of four code rows, rows
// 0-1 in Y0 and rows 2-3 in Y2, sharing one broadcast of q[j..j+3] (Y8),
// scale (Y9) and min (Y10, dot only) per step. In: SI = q (r for L2),
// DI = codes, R15 = scale, R9 = min, DX = out, BX = dim, CX = groups.
// Uses AX, R8, R10, R12-R14, X0-X14.
#define SQ8BLOCK4(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	PCALIGN $64 \
s4group: \
	LEAQ (DI)(BX*1), R12 \
	LEAQ (R12)(BX*1), R13 \
	LEAQ (R13)(BX*1), R14 \
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
	EPI \
	ADDQ $16, DX \
	LEAQ (DI)(BX*4), DI \
	DECQ CX \
	JNZ  s4group

// SQ8MULTI2 is the quad body: CX pairs of code rows against four queries,
// row r (DI) in the low and row r+1 (AX) in the high half of one decoded
// pair (Y8), each query broadcast to both halves, one accumulator per
// query (Y0-Y3). In: SI, R14, R13, DX = q0..q3 (r0..r3 for L2);
// DI = codes; R15 = scale; R9 = min; BX = dim; CX = pairs. R11 is row r's
// byte offset into every out slice. Uses AX, R8, R10-R12, X0-X14.
#define SQ8MULTI2(VLOAD, VPREP, VSTEP, SPREP, SSTEP, EPI) \
	MOVQ BX, R10 \
	ANDQ $-4, R10 \
	XORQ R11, R11 \
	PCALIGN $64 \
q2pair: \
	LEAQ   (DI)(BX*1), AX \
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
	DECQ CX \
	JNZ  q2pair

// func sq8L2BlockSSE(r, scale []float32, codes []byte, out []float32)
// r is the hoisted residual q - min; out[i] = Σ (r[j] - b[j]*scale[j])².
TEXT ·sq8L2BlockSSE(SB), NOSPLIT, $0-96
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), BX
	MOVQ scale_base+24(FP), R15
	MOVQ codes_base+48(FP), DI
	MOVQ out_base+72(FP), DX
	MOVQ out_len+80(FP), CX
	SQ8BLOCK1(NOPREP, PL2, NOPREP, SL2, STORE1)
	RET

// func sq8DotBlockSSE(q, min, scale []float32, codes []byte, out []float32, op int64)
// out[i] = op(Σ q[j] * (min[j] + b[j]*scale[j])).
TEXT ·sq8DotBlockSSE(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), BX
	MOVQ min_base+24(FP), R9
	MOVQ scale_base+48(FP), R15
	MOVQ codes_base+72(FP), DI
	MOVQ out_base+96(FP), DX
	MOVQ out_len+104(FP), CX
	MOVQ op+120(FP), R12
	SQ8BLOCK1(VMINADD, PDOT, SMINADD, SDOT, DOTEPI1)
	RET

// func sq8L2Multi4SSE(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32)
TEXT ·sq8L2Multi4SSE(SB), NOSPLIT, $0-240
	MOVQ r0_base+0(FP), SI
	MOVQ r0_len+8(FP), BX
	MOVQ r1_base+24(FP), R14
	MOVQ r2_base+48(FP), R13
	MOVQ r3_base+72(FP), DX
	MOVQ scale_base+96(FP), R15
	MOVQ codes_base+120(FP), DI
	MOVQ o0_len+152(FP), CX
	SQ8MULTI4(NOPREP, PL2, NOPREP, SL2, SQ8L2STORE)
	RET

// func sq8DotMulti4SSE(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int64)
// Every GP register is taken, so op waits in X15 until the epilogue.
#define SQ8DOTEPI MOVQ X15, R12; DOTEPI(R12, EACH4, SQ8DOTSTORE)
TEXT ·sq8DotMulti4SSE(SB), NOSPLIT, $0-272
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R13
	MOVQ q3_base+72(FP), DX
	MOVQ min_base+96(FP), R9
	MOVQ scale_base+120(FP), R15
	MOVQ codes_base+144(FP), DI
	MOVQ o0_len+176(FP), CX
	MOVQ op+264(FP), R12
	MOVQ R12, X15
	SQ8MULTI4(VMINADD, PDOT, SMINADD, SDOT, SQ8DOTEPI)
	RET

// func sq8L2BlockAVX2(r, scale []float32, codes []byte, out []float32)
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

// func sq8L2Multi4AVX2(r0, r1, r2, r3, scale []float32, codes []byte, o0, o1, o2, o3 []float32)
TEXT ·sq8L2Multi4AVX2(SB), NOSPLIT, $0-240
	MOVQ r0_base+0(FP), SI
	MOVQ r0_len+8(FP), BX
	MOVQ r1_base+24(FP), R14
	MOVQ r2_base+48(FP), R13
	MOVQ r3_base+72(FP), DX
	MOVQ scale_base+96(FP), R15
	MOVQ codes_base+120(FP), DI
	MOVQ o0_len+152(FP), CX
	SHRQ $1, CX
	SQ8MULTI2(NOPREP, NOPREP, VL2, NOPREP, SL2, SQ8L2STORE8)
	RET

// func sq8DotMulti4AVX2(q0, q1, q2, q3, min, scale []float32, codes []byte, o0, o1, o2, o3 []float32, op int64)
#define SQ8DOTEPI8 MOVQ X15, R12; DOTEPI(R12, EACH8, SQ8DOTSTORE8)
TEXT ·sq8DotMulti4AVX2(SB), NOSPLIT, $0-272
	MOVQ q0_base+0(FP), SI
	MOVQ q0_len+8(FP), BX
	MOVQ q1_base+24(FP), R14
	MOVQ q2_base+48(FP), R13
	MOVQ q3_base+72(FP), DX
	MOVQ min_base+96(FP), R9
	MOVQ scale_base+120(FP), R15
	MOVQ codes_base+144(FP), DI
	MOVQ o0_len+176(FP), CX
	MOVQ op+264(FP), R12
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
