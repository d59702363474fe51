// Order-preserving AVX2 and AVX-512F kernels for the training GEMMs and the
// shared-model write (see gemmexact.go and atomic.go).
//
// The exactness rule: vectorise across independent outputs, never across the
// reduction; each GEMM term is one fused multiply-add (VFMADD231PD, one
// rounding), as math.FMA is in the scalar Go loop, and every output sees the
// terms in the same ascending-p order; the dot forms' alpha epilogue and the
// shared-model write keep multiply and add as two roundings. Only reached
// after runtime CPUID detection (exactKernels, and wideKernels for AVX-512F).

#include "textflag.h"

// AXPY(off, acc): acc += Y12 · b[off:off+4], b row at R11, fused.
#define AXPY(off, acc) \
	VFMADD231PD off(R11), Y12, acc

// NEXTROW: broadcast s[q] into Y12 and point R11 at b[off[q]], q in AX.
#define NEXTROW \
	VBROADCASTSD (SI)(AX*8), Y12; \
	MOVQ (R8)(AX*8), R11;         \
	LEAQ (R9)(R11*8), R11

// func axpyRowAVX(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool)
//
// c[j] = (zero ? 0 : c[j]) + Σ_q s[q]·b[off[q]+j] for j < n (n a multiple
// of 4), q ascending. The caller has already dropped the s == 0 terms, so
// the loop has no data-dependent branch. A tile of c — 48, then 16, then 4
// columns — stays in registers across all cnt terms: c is loaded (or
// zeroed) and stored once per call, not once per term.
TEXT ·axpyRowAVX(SB), NOSPLIT, $0-49
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ s+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ b+32(FP), R9
	MOVQ cnt+40(FP), CX
	MOVBQZX zero+48(FP), R10

tile48:
	CMPQ DX, $48
	JLT  tile16
	TESTQ R10, R10
	JNZ  zero48
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	VMOVUPD 256(DI), Y8
	VMOVUPD 288(DI), Y9
	VMOVUPD 320(DI), Y10
	VMOVUPD 352(DI), Y11
	JMP  go48
zero48:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
go48:
	XORQ AX, AX
	JMP  test48
loop48:
	NEXTROW
	AXPY(0, Y0)
	AXPY(32, Y1)
	AXPY(64, Y2)
	AXPY(96, Y3)
	AXPY(128, Y4)
	AXPY(160, Y5)
	AXPY(192, Y6)
	AXPY(224, Y7)
	AXPY(256, Y8)
	AXPY(288, Y9)
	AXPY(320, Y10)
	AXPY(352, Y11)
	INCQ AX
test48:
	CMPQ AX, CX
	JLT  loop48
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VMOVUPD Y10, 320(DI)
	VMOVUPD Y11, 352(DI)
	ADDQ $384, DI
	ADDQ $384, R9
	SUBQ $48, DX
	JMP  tile48

tile16:
	CMPQ DX, $16
	JLT  tile4
	TESTQ R10, R10
	JNZ  zero16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	JMP  go16
zero16:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
go16:
	XORQ AX, AX
	JMP  test16
loop16:
	NEXTROW
	AXPY(0, Y0)
	AXPY(32, Y1)
	AXPY(64, Y2)
	AXPY(96, Y3)
	INCQ AX
test16:
	CMPQ AX, CX
	JLT  loop16
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R9
	SUBQ $16, DX
	JMP  tile16

tile4:
	CMPQ DX, $4
	JLT  done
	VXORPD Y0, Y0, Y0
	TESTQ R10, R10
	JNZ  go4
	VMOVUPD 0(DI), Y0
go4:
	XORQ AX, AX
	JMP  test4
loop4:
	NEXTROW
	AXPY(0, Y0)
	INCQ AX
test4:
	CMPQ AX, CX
	JLT  loop4
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, R9
	SUBQ $4, DX
	JMP  tile4

done:
	VZEROUPPER
	RET

// DOT(off, bt, arow, acc, tmp): acc += broadcast(arow[off]) · bt, fused;
// tmp holds the broadcast.
#define DOT(off, bt, arow, acc, tmp) \
	VBROADCASTSD off(arow), tmp; \
	VFMADD231PD bt, tmp, acc

// func dotTilesAVX(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, tiles int, alpha float64)
//
// For each of tiles consecutive 4×4 tiles: c_r[4t+q] += alpha · Σ_p a_r[p]·b_{4t+q}[p]
// over p < k, for the four rows of A at a, a+aStride, …, the rows of B at
// b, b+bStride, … and the four rows of C at c, c+cStride, … (strides in
// bytes). Each 4×4 block of B is transposed in registers so that lane q of
// Bᵀ[p] is b_q[p]; accumulator r then takes broadcast(a_r[p])·Bᵀ[p] for
// ascending p — sixteen serial chains, each the one the scalar loop builds,
// from +0, scaled by alpha only after the last term.
TEXT ·dotTilesAVX(SB), NOSPLIT, $0-72
	MOVQ aStride+8(FP), AX
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), BX
	MOVQ c+40(FP), DI

tile:
	MOVQ a+0(FP), R8
	LEAQ (R8)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	MOVQ SI, R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R14
	LEAQ (R14)(BX*1), DX
	LEAQ (DX)(BX*1), SI             // next tile's first B row
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ k+32(FP), CX
	SHRQ $2, CX
	JZ   tail

quad:
	VMOVUPD (R12), Y4
	VMOVUPD (R13), Y5
	VMOVUPD (R14), Y6
	VMOVUPD (DX), Y7
	VUNPCKLPD Y5, Y4, Y8            // b0[0] b1[0] b0[2] b1[2]
	VUNPCKHPD Y5, Y4, Y9            // b0[1] b1[1] b0[3] b1[3]
	VUNPCKLPD Y7, Y6, Y10           // b2[0] b3[0] b2[2] b3[2]
	VUNPCKHPD Y7, Y6, Y11           // b2[1] b3[1] b2[3] b3[3]
	VPERM2F128 $0x20, Y10, Y8, Y4   // Bᵀ[p]
	VPERM2F128 $0x20, Y11, Y9, Y5   // Bᵀ[p+1]
	VPERM2F128 $0x31, Y10, Y8, Y6   // Bᵀ[p+2]
	VPERM2F128 $0x31, Y11, Y9, Y7   // Bᵀ[p+3]
	DOT(0, Y4, R8, Y0, Y12)
	DOT(0, Y4, R9, Y1, Y13)
	DOT(0, Y4, R10, Y2, Y14)
	DOT(0, Y4, R11, Y3, Y15)
	DOT(8, Y5, R8, Y0, Y12)
	DOT(8, Y5, R9, Y1, Y13)
	DOT(8, Y5, R10, Y2, Y14)
	DOT(8, Y5, R11, Y3, Y15)
	DOT(16, Y6, R8, Y0, Y12)
	DOT(16, Y6, R9, Y1, Y13)
	DOT(16, Y6, R10, Y2, Y14)
	DOT(16, Y6, R11, Y3, Y15)
	DOT(24, Y7, R8, Y0, Y12)
	DOT(24, Y7, R9, Y1, Y13)
	DOT(24, Y7, R10, Y2, Y14)
	DOT(24, Y7, R11, Y3, Y15)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, DX
	DECQ CX
	JNZ  quad

tail:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   scale
single:
	VMOVSD (R12), X4
	VMOVHPD (R13), X4, X4
	VMOVSD (R14), X5
	VMOVHPD (DX), X5, X5
	VINSERTF128 $1, X5, Y4, Y4      // Bᵀ[p]
	DOT(0, Y4, R8, Y0, Y12)
	DOT(0, Y4, R9, Y1, Y13)
	DOT(0, Y4, R10, Y2, Y14)
	DOT(0, Y4, R11, Y3, Y15)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, DX
	DECQ CX
	JNZ  single

scale:
	VBROADCASTSD alpha+64(FP), Y4
	MOVQ cStride+48(FP), R8
	LEAQ (DI)(R8*2), R9
	VMULPD Y4, Y0, Y0
	VMULPD Y4, Y1, Y1
	VMULPD Y4, Y2, Y2
	VMULPD Y4, Y3, Y3
	VADDPD (DI), Y0, Y0
	VADDPD (DI)(R8*1), Y1, Y1
	VADDPD (R9), Y2, Y2
	VADDPD (R9)(R8*1), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (R9)
	VMOVUPD Y3, (R9)(R8*1)
	ADDQ $32, DI
	DECQ tiles+56(FP)
	JNZ  tile
	VZEROUPPER
	RET

// func addScaledAVX(d *float64, a float64, s *float64, n int)
//
// d[j] += a·s[j] for j < n (n a multiple of 4), skipping the zero terms as
// the scalar loop's `if v != 0` does: the skip is a blend mask, not a branch.
// NEQ_UQ counts NaN as nonzero, so a NaN term still adds, and a lane whose
// term is ±0 keeps d's own bits (a -0 weight stays -0). Multiply and add are
// two roundings, as in the scalar loop.
TEXT ·addScaledAVX(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	VBROADCASTSD a+8(FP), Y0
	MOVQ s+16(FP), SI
	MOVQ n+24(FP), CX
	VXORPD Y1, Y1, Y1
	SHRQ $2, CX
	JZ   addDone
addLoop:
	VMOVUPD (SI), Y2
	VMULPD Y2, Y0, Y2              // v = a·s
	VCMPPD $4, Y1, Y2, Y3          // v != 0 (NEQ_UQ)
	VMOVUPD (DI), Y4
	VADDPD Y2, Y4, Y5              // d + v
	VBLENDVPD Y3, Y5, Y4, Y4       // v != 0 ? d + v : d
	VMOVUPD Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  addLoop
addDone:
	VZEROUPPER
	RET

// BCAST4: Y12..Y15 = broadcast(a[p..p+3]), a row at R8.
#define BCAST4 \
	VBROADCASTSD 0(R8), Y12;  \
	VBROADCASTSD 8(R8), Y13;  \
	VBROADCASTSD 16(R8), Y14; \
	VBROADCASTSD 24(R8), Y15

// TRANS4(base): Y4..Y7 = Bᵀ[p..p+3] for the four B rows at base, base+BX,
// base+2·BX and base+R15 (R15 = 3·BX): lane q of Y4+r is b_q[p+r].
#define TRANS4(base) \
	VMOVUPD (base), Y4;             \
	VMOVUPD (base)(BX*1), Y5;       \
	VMOVUPD (base)(BX*2), Y6;       \
	VMOVUPD (base)(R15*1), Y7;      \
	VUNPCKLPD Y5, Y4, Y8;           \
	VUNPCKHPD Y5, Y4, Y9;           \
	VUNPCKLPD Y7, Y6, Y10;          \
	VUNPCKHPD Y7, Y6, Y11;          \
	VPERM2F128 $0x20, Y10, Y8, Y4;  \
	VPERM2F128 $0x20, Y11, Y9, Y5;  \
	VPERM2F128 $0x31, Y10, Y8, Y6;  \
	VPERM2F128 $0x31, Y11, Y9, Y7

// MAC4(acc): acc += a[p]·Bᵀ[p], then a[p+1]·Bᵀ[p+1], … — ascending p, each
// term fused.
#define MAC4(acc) \
	VFMADD231PD Y4, Y12, acc; \
	VFMADD231PD Y5, Y13, acc; \
	VFMADD231PD Y6, Y14, acc; \
	VFMADD231PD Y7, Y15, acc

// MAC1(base, acc): acc += a[p]·Bᵀ[p] for one p, gathering lane q from the
// B row at base + q·BX; a[p] is broadcast in Y12.
#define MAC1(base, acc) \
	VMOVSD (base), X4;                \
	VMOVHPD (base)(BX*1), X4, X4;     \
	VMOVSD (base)(BX*2), X5;          \
	VMOVHPD (base)(R15*1), X5, X5;    \
	VINSERTF128 $1, X5, Y4, Y4;       \
	VFMADD231PD Y4, Y12, acc

// func dotRowAVX(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64)
//
// c[j] += alpha · Σ_p a[p]·b_j[p] over p < k for j < n (n a multiple of 4),
// one row of A against the rows of B at b, b+bStride, … (stride in bytes):
// the dot form's row that does not come in fours. Columns go sixteen at a
// time — four accumulators, each fed by a 4×4 block of B transposed in
// registers as dotTilesAVX does — then four at a time. Each lane is the
// serial chain the scalar loop builds, from +0, scaled by alpha last.
TEXT ·dotRowAVX(SB), NOSPLIT, $0-56
	MOVQ b+8(FP), SI
	MOVQ bStride+16(FP), BX
	LEAQ (BX)(BX*2), R15
	MOVQ c+32(FP), R9
	MOVQ n+40(FP), R10

row16:
	CMPQ R10, $16
	JLT  row4
	MOVQ a+0(FP), R8
	MOVQ SI, R12
	LEAQ (R12)(BX*4), R13
	LEAQ (R13)(BX*4), R14
	LEAQ (R14)(BX*4), DX
	LEAQ (DX)(BX*4), SI             // next tile's first B row
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ k+24(FP), CX
	SHRQ $2, CX
	JZ   tail16
quad16:
	BCAST4
	TRANS4(R12)
	MAC4(Y0)
	TRANS4(R13)
	MAC4(Y1)
	TRANS4(R14)
	MAC4(Y2)
	TRANS4(DX)
	MAC4(Y3)
	ADDQ $32, R8
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, DX
	DECQ CX
	JNZ  quad16
tail16:
	MOVQ k+24(FP), CX
	ANDQ $3, CX
	JZ   store16
single16:
	VBROADCASTSD (R8), Y12
	MAC1(R12, Y0)
	MAC1(R13, Y1)
	MAC1(R14, Y2)
	MAC1(DX, Y3)
	ADDQ $8, R8
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, DX
	DECQ CX
	JNZ  single16
store16:
	VBROADCASTSD alpha+48(FP), Y4
	VMULPD Y4, Y0, Y0
	VMULPD Y4, Y1, Y1
	VMULPD Y4, Y2, Y2
	VMULPD Y4, Y3, Y3
	VADDPD 0(R9), Y0, Y0
	VADDPD 32(R9), Y1, Y1
	VADDPD 64(R9), Y2, Y2
	VADDPD 96(R9), Y3, Y3
	VMOVUPD Y0, 0(R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	VMOVUPD Y3, 96(R9)
	ADDQ $128, R9
	SUBQ $16, R10
	JMP  row16

row4:
	CMPQ R10, $4
	JLT  rowDone
	MOVQ a+0(FP), R8
	MOVQ SI, R12
	LEAQ (R12)(BX*4), SI
	VXORPD Y0, Y0, Y0
	MOVQ k+24(FP), CX
	SHRQ $2, CX
	JZ   tail4
quad4:
	BCAST4
	TRANS4(R12)
	MAC4(Y0)
	ADDQ $32, R8
	ADDQ $32, R12
	DECQ CX
	JNZ  quad4
tail4:
	MOVQ k+24(FP), CX
	ANDQ $3, CX
	JZ   store4
single4:
	VBROADCASTSD (R8), Y12
	MAC1(R12, Y0)
	ADDQ $8, R8
	ADDQ $8, R12
	DECQ CX
	JNZ  single4
store4:
	VBROADCASTSD alpha+48(FP), Y4
	VMULPD Y4, Y0, Y0
	VADDPD 0(R9), Y0, Y0
	VMOVUPD Y0, 0(R9)
	ADDQ $32, R9
	SUBQ $4, R10
	JMP  row4

rowDone:
	VZEROUPPER
	RET

// The AVX-512F kernels below are the same three loops eight lanes wide, for
// hosts whose CPUID reports AVX512F and whose OS saves ZMM state
// (wideKernels). They use AVX512F instructions only: registers are zeroed
// with VPXORQ (VXORPD on ZMM needs DQ), and the rule above holds lane for
// lane — one VFMADD231PD per term, every chain in ascending p.

// AXPYZ(off, acc): acc += Z12 · b[off:off+8], b row at R11, fused.
#define AXPYZ(off, acc) \
	VFMADD231PD off(R11), Z12, acc

// NEXTROWZ: broadcast s[q] into Z12 and point R11 at b[off[q]], q in AX.
#define NEXTROWZ \
	VBROADCASTSD (SI)(AX*8), Z12; \
	MOVQ (R8)(AX*8), R11;         \
	LEAQ (R9)(R11*8), R11

// func axpyRowAVX512(c *float64, n int, s *float64, off *int, b *float64, cnt int, zero bool)
//
// axpyRowAVX eight lanes wide: the same contract (n a multiple of 4, the
// s == 0 terms already dropped), with tiles of 96, then 32, then 8 columns
// held in ZMM registers across all cnt terms, and a last 4 in a YMM.
TEXT ·axpyRowAVX512(SB), NOSPLIT, $0-49
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), DX
	MOVQ s+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ b+32(FP), R9
	MOVQ cnt+40(FP), CX
	MOVBQZX zero+48(FP), R10

wide96:
	CMPQ DX, $96
	JLT  wide32
	TESTQ R10, R10
	JNZ  zero96
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11
	JMP  go96
zero96:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
go96:
	XORQ AX, AX
	JMP  test96
loop96:
	NEXTROWZ
	AXPYZ(0, Z0)
	AXPYZ(64, Z1)
	AXPYZ(128, Z2)
	AXPYZ(192, Z3)
	AXPYZ(256, Z4)
	AXPYZ(320, Z5)
	AXPYZ(384, Z6)
	AXPYZ(448, Z7)
	AXPYZ(512, Z8)
	AXPYZ(576, Z9)
	AXPYZ(640, Z10)
	AXPYZ(704, Z11)
	INCQ AX
test96:
	CMPQ AX, CX
	JLT  loop96
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	ADDQ $768, DI
	ADDQ $768, R9
	SUBQ $96, DX
	JMP  wide96

wide32:
	CMPQ DX, $32
	JLT  wide8
	TESTQ R10, R10
	JNZ  zero32
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	JMP  go32
zero32:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
go32:
	XORQ AX, AX
	JMP  test32
loop32:
	NEXTROWZ
	AXPYZ(0, Z0)
	AXPYZ(64, Z1)
	AXPYZ(128, Z2)
	AXPYZ(192, Z3)
	INCQ AX
test32:
	CMPQ AX, CX
	JLT  loop32
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, R9
	SUBQ $32, DX
	JMP  wide32

wide8:
	CMPQ DX, $8
	JLT  wide4
	VPXORQ Z0, Z0, Z0
	TESTQ R10, R10
	JNZ  go8
	VMOVUPD 0(DI), Z0
go8:
	XORQ AX, AX
	JMP  test8
loop8:
	NEXTROWZ
	AXPYZ(0, Z0)
	INCQ AX
test8:
	CMPQ AX, CX
	JLT  loop8
	VMOVUPD Z0, 0(DI)
	ADDQ $64, DI
	ADDQ $64, R9
	SUBQ $8, DX
	JMP  wide8

wide4:
	CMPQ DX, $4
	JLT  wideDone
	VXORPD Y0, Y0, Y0
	TESTQ R10, R10
	JNZ  go4w
	VMOVUPD 0(DI), Y0
go4w:
	XORQ AX, AX
	JMP  test4w
loop4w:
	NEXTROW
	AXPY(0, Y0)
	INCQ AX
test4w:
	CMPQ AX, CX
	JLT  loop4w
	VMOVUPD Y0, 0(DI)

wideDone:
	VZEROUPPER
	RET

// MACZ(off, bt): Z0..Z7 += broadcast(a_r[p]) · bt for the eight A rows at
// R8 + r·AX (r < 4) and R9 + (r−4)·AX (R10 = 3·AX), a[p] at off past each,
// each term fused.
#define MACZ(off, bt) \
	VFMADD231PD.BCST off(R8), bt, Z0;          \
	VFMADD231PD.BCST off(R8)(AX*1), bt, Z1;    \
	VFMADD231PD.BCST off(R8)(AX*2), bt, Z2;    \
	VFMADD231PD.BCST off(R8)(R10*1), bt, Z3;   \
	VFMADD231PD.BCST off(R9), bt, Z4;          \
	VFMADD231PD.BCST off(R9)(AX*1), bt, Z5;    \
	VFMADD231PD.BCST off(R9)(AX*2), bt, Z6;    \
	VFMADD231PD.BCST off(R9)(R10*1), bt, Z7

// GATHER4(base, lo, hi): lo = b_0[p] b_1[p] and hi = b_2[p] b_3[p] for the
// four B rows at base + q·BX (R15 = 3·BX), one p.
#define GATHER4(base, lo, hi) \
	VMOVSD (base), lo;               \
	VMOVHPD (base)(BX*1), lo, lo;    \
	VMOVSD (base)(BX*2), hi;         \
	VMOVHPD (base)(R15*1), hi, hi

// TRANSZ(lo, hi): Z24..Z31 = Bᵀ[p..p+7] for the eight B rows at lo + q·BX
// and hi + q·BX (q < 4, R15 = 3·BX): lane q of Z24+x is b_q[p+x]. Three
// rounds of eight shuffles — pairs of rows (VUNPCKLPD/VUNPCKHPD), then
// 128-bit lanes twice (VSHUFF64X2) — through Z16..Z23.
#define TRANSZ(lo, hi) \
	VMOVUPD (lo), Z16;                \
	VMOVUPD (lo)(BX*1), Z17;          \
	VMOVUPD (lo)(BX*2), Z18;          \
	VMOVUPD (lo)(R15*1), Z19;         \
	VMOVUPD (hi), Z20;                \
	VMOVUPD (hi)(BX*1), Z21;          \
	VMOVUPD (hi)(BX*2), Z22;          \
	VMOVUPD (hi)(R15*1), Z23;         \
	VUNPCKLPD Z17, Z16, Z24;          \
	VUNPCKHPD Z17, Z16, Z25;          \
	VUNPCKLPD Z19, Z18, Z26;          \
	VUNPCKHPD Z19, Z18, Z27;          \
	VUNPCKLPD Z21, Z20, Z28;          \
	VUNPCKHPD Z21, Z20, Z29;          \
	VUNPCKLPD Z23, Z22, Z30;          \
	VUNPCKHPD Z23, Z22, Z31;          \
	VSHUFF64X2 $0x88, Z26, Z24, Z16;  \
	VSHUFF64X2 $0xdd, Z26, Z24, Z17;  \
	VSHUFF64X2 $0x88, Z27, Z25, Z18;  \
	VSHUFF64X2 $0xdd, Z27, Z25, Z19;  \
	VSHUFF64X2 $0x88, Z30, Z28, Z20;  \
	VSHUFF64X2 $0xdd, Z30, Z28, Z21;  \
	VSHUFF64X2 $0x88, Z31, Z29, Z22;  \
	VSHUFF64X2 $0xdd, Z31, Z29, Z23;  \
	VSHUFF64X2 $0x88, Z20, Z16, Z24;  \
	VSHUFF64X2 $0x88, Z22, Z18, Z25;  \
	VSHUFF64X2 $0x88, Z21, Z17, Z26;  \
	VSHUFF64X2 $0x88, Z23, Z19, Z27;  \
	VSHUFF64X2 $0xdd, Z20, Z16, Z28;  \
	VSHUFF64X2 $0xdd, Z22, Z18, Z29;  \
	VSHUFF64X2 $0xdd, Z21, Z17, Z30;  \
	VSHUFF64X2 $0xdd, Z23, Z19, Z31

// GATHERZ(lo, hi, dst): dst = Bᵀ[p] for one p, gathering lane q from the B
// rows TRANSZ reads; X8..X11 are clobbered.
#define GATHERZ(lo, hi, dst) \
	GATHER4(lo, X8, X9);           \
	VINSERTF128 $1, X9, Y8, Y8;    \
	GATHER4(hi, X10, X11);         \
	VINSERTF128 $1, X11, Y10, Y10; \
	VINSERTF64X4 $1, Y10, Z8, dst

// STOREZ(acc, addr): addr[0:8] += alpha·acc in the lanes of K1; alpha in Z8.
#define STOREZ(acc, addr) \
	VMULPD Z8, acc, acc;      \
	VADDPD addr, acc, K1, acc; \
	VMOVUPD acc, K1, addr

// func dotTilesAVX512(a *float64, aStride int, b *float64, bStride int, k int, c *float64, cStride int, cols int, alpha float64)
//
// c_r[j] += alpha · Σ_p a_r[p]·b_j[p] over p < k for the eight rows of A at
// a, a+aStride, …, j < cols (a multiple of 4) over the rows of B at b,
// b+bStride, …, and the eight rows of C at c, c+cStride, … (strides in
// bytes). Tiles are 8×8: each 8×8 block of B is transposed in registers
// (three rounds of eight shuffles) so that lane q of Bᵀ[p] is b_q[p], and
// accumulator r takes broadcast(a_r[p])·Bᵀ[p] for ascending p — sixty-four
// serial chains, each the one the scalar loop builds, from +0, scaled by
// alpha only after the last term. A last tile of four columns repeats them
// in lanes 4–7 and stores through the mask K1 = 0x0f.
TEXT ·dotTilesAVX512(SB), NOSPLIT, $0-72
	MOVQ aStride+8(FP), AX
	LEAQ (AX)(AX*2), R10
	MOVQ b+16(FP), SI
	MOVQ bStride+24(FP), BX
	LEAQ (BX)(BX*2), R15
	MOVQ c+40(FP), DI
	MOVQ cols+56(FP), DX
	MOVQ $0xff, R11
	KMOVW R11, K1

tileZ:
	MOVQ a+0(FP), R8
	LEAQ (R8)(AX*4), R9
	MOVQ SI, R12
	LEAQ (R12)(BX*4), R13
	CMPQ DX, $8
	JGE  fullZ
	MOVQ $0x0f, R11
	KMOVW R11, K1
	MOVQ R12, R13                   // lanes 4–7 repeat lanes 0–3
fullZ:
	LEAQ (R13)(BX*4), SI            // next tile's first B row
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ k+32(FP), CX
	SHRQ $3, CX
	JZ   tailZ

octetZ:
	TRANSZ(R12, R13)
	MACZ(0, Z24)
	MACZ(8, Z25)
	MACZ(16, Z26)
	MACZ(24, Z27)
	MACZ(32, Z28)
	MACZ(40, Z29)
	MACZ(48, Z30)
	MACZ(56, Z31)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R12
	ADDQ $64, R13
	DECQ CX
	JNZ  octetZ

tailZ:
	MOVQ k+32(FP), CX
	ANDQ $7, CX
	JZ   storeZ
singleZ:
	GATHERZ(R12, R13, Z16)
	MACZ(0, Z16)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  singleZ

storeZ:
	VBROADCASTSD alpha+64(FP), Z8
	MOVQ cStride+48(FP), R12
	LEAQ (R12)(R12*2), R13
	LEAQ (DI)(R12*4), R14
	STOREZ(Z0, (DI))
	STOREZ(Z1, (DI)(R12*1))
	STOREZ(Z2, (DI)(R12*2))
	STOREZ(Z3, (DI)(R13*1))
	STOREZ(Z4, (R14))
	STOREZ(Z5, (R14)(R12*1))
	STOREZ(Z6, (R14)(R12*2))
	STOREZ(Z7, (R14)(R13*1))
	ADDQ $64, DI
	SUBQ $8, DX
	JG   tileZ
	VZEROUPPER
	RET

// MACROW(acc): acc += broadcast(a[p+x])·Bᵀ[p+x] for x = 0..7, a row at R8,
// Bᵀ in Z24..Z31 — ascending p, each term fused.
#define MACROW(acc) \
	VFMADD231PD.BCST 0(R8), Z24, acc;  \
	VFMADD231PD.BCST 8(R8), Z25, acc;  \
	VFMADD231PD.BCST 16(R8), Z26, acc; \
	VFMADD231PD.BCST 24(R8), Z27, acc; \
	VFMADD231PD.BCST 32(R8), Z28, acc; \
	VFMADD231PD.BCST 40(R8), Z29, acc; \
	VFMADD231PD.BCST 48(R8), Z30, acc; \
	VFMADD231PD.BCST 56(R8), Z31, acc

// func dotRowAVX512(a *float64, b *float64, bStride int, k int, c *float64, n int, alpha float64)
//
// dotRowAVX eight lanes wide: one row of A against the rows of B, columns
// sixteen at a time — two accumulators, each fed by an 8×8 block of B
// transposed in registers (TRANSZ) — then eight, then a last four through
// the mask K1 = 0x0f with lanes 4–7 repeating lanes 0–3. Each lane is the
// serial chain the scalar loop builds, from +0, scaled by alpha last.
TEXT ·dotRowAVX512(SB), NOSPLIT, $0-56
	MOVQ b+8(FP), SI
	MOVQ bStride+16(FP), BX
	LEAQ (BX)(BX*2), R15
	MOVQ c+32(FP), R9
	MOVQ n+40(FP), R10
	MOVQ $0xff, R11
	KMOVW R11, K1

row16Z:
	CMPQ R10, $16
	JLT  row8Z
	MOVQ a+0(FP), R8
	MOVQ SI, R12
	LEAQ (R12)(BX*4), R13
	LEAQ (R13)(BX*4), R14
	LEAQ (R14)(BX*4), DX
	LEAQ (DX)(BX*4), SI             // next tile's first B row
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ k+24(FP), CX
	SHRQ $3, CX
	JZ   tail16Z
octet16Z:
	TRANSZ(R12, R13)
	MACROW(Z0)
	TRANSZ(R14, DX)
	MACROW(Z1)
	ADDQ $64, R8
	ADDQ $64, R12
	ADDQ $64, R13
	ADDQ $64, R14
	ADDQ $64, DX
	DECQ CX
	JNZ  octet16Z
tail16Z:
	MOVQ k+24(FP), CX
	ANDQ $7, CX
	JZ   store16Z
single16Z:
	GATHERZ(R12, R13, Z16)
	GATHERZ(R14, DX, Z17)
	VFMADD231PD.BCST (R8), Z16, Z0
	VFMADD231PD.BCST (R8), Z17, Z1
	ADDQ $8, R8
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R14
	ADDQ $8, DX
	DECQ CX
	JNZ  single16Z
store16Z:
	VBROADCASTSD alpha+48(FP), Z8
	VMULPD Z8, Z0, Z0
	VMULPD Z8, Z1, Z1
	VADDPD 0(R9), Z0, Z0
	VADDPD 64(R9), Z1, Z1
	VMOVUPD Z0, 0(R9)
	VMOVUPD Z1, 64(R9)
	ADDQ $128, R9
	SUBQ $16, R10
	JMP  row16Z

row8Z:
	CMPQ R10, $4
	JLT  rowDoneZ
	MOVQ a+0(FP), R8
	MOVQ SI, R12
	LEAQ (R12)(BX*4), R13
	CMPQ R10, $8
	JGE  full8Z
	MOVQ $0x0f, R11
	KMOVW R11, K1
	MOVQ R12, R13                   // lanes 4–7 repeat lanes 0–3
full8Z:
	LEAQ (R13)(BX*4), SI
	VPXORQ Z0, Z0, Z0
	MOVQ k+24(FP), CX
	SHRQ $3, CX
	JZ   tail8Z
octet8Z:
	TRANSZ(R12, R13)
	MACROW(Z0)
	ADDQ $64, R8
	ADDQ $64, R12
	ADDQ $64, R13
	DECQ CX
	JNZ  octet8Z
tail8Z:
	MOVQ k+24(FP), CX
	ANDQ $7, CX
	JZ   store8Z
single8Z:
	GATHERZ(R12, R13, Z16)
	VFMADD231PD.BCST (R8), Z16, Z0
	ADDQ $8, R8
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ CX
	JNZ  single8Z
store8Z:
	VBROADCASTSD alpha+48(FP), Z8
	STOREZ(Z0, (R9))
	ADDQ $64, R9
	SUBQ $8, R10
	JMP  row8Z

rowDoneZ:
	VZEROUPPER
	RET

// The sigmoid kernel's constants: math.Exp's (exp_amd64.s) as it spells them,
// then the kernel's own. Each is broadcast to four lanes where it is used.
DATA sigmoidc<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA sigmoidc<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA sigmoidc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA sigmoidc<>+24(SB)/8, $0.0625
DATA sigmoidc<>+32(SB)/8, $2.4801587301587301587e-5
DATA sigmoidc<>+40(SB)/8, $1.9841269841269841270e-4
DATA sigmoidc<>+48(SB)/8, $1.3888888888888888889e-3
DATA sigmoidc<>+56(SB)/8, $8.3333333333333333333e-3
DATA sigmoidc<>+64(SB)/8, $4.1666666666666666667e-2
DATA sigmoidc<>+72(SB)/8, $1.6666666666666666667e-1
DATA sigmoidc<>+80(SB)/8, $0.5
DATA sigmoidc<>+88(SB)/8, $1.0
DATA sigmoidc<>+96(SB)/8, $2.0
DATA sigmoidc<>+104(SB)/8, $0x8000000000000000 // sign bit
DATA sigmoidc<>+112(SB)/8, $-708.0 // the kernel's lower bound on −|x|
DATA sigmoidc<>+120(SB)/8, $1023 // exponent bias
GLOBL sigmoidc<>(SB), RODATA, $128

// TAYLOR(off): Y4 = Y1·Y4 + c, c the constant at sigmoidc+off.
#define TAYLOR(off) \
	VBROADCASTSD sigmoidc<>+off(SB), Y6; \
	VFMADD213PD Y6, Y1, Y4

// func sigmoidAVX(d *float64, n int) int
//
// d[i] = Sigmoid(d[i]) for i < n (n a multiple of 4), a quad at a time, and
// returns how many it did: it stops at the first quad with a lane whose −|x|
// is below −708 or not finite, which the caller gives to the scalar formula.
// Both of Sigmoid's branches take exp(−|x|) (exp(±0) is 1 either way), and
// inside the bound that is math.Exp's FMA path (exp_amd64.s, avxfma), lane for
// lane: the same operations on the same constants, so the same bits. Its FMAs
// are math.Exp's own, and exactKernels implies math's useFMA. Then
// (x < 0 ? e : 1) / (1 + e), each one IEEE operation, as Sigmoid has it.
TEXT ·sigmoidAVX(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	VBROADCASTSD sigmoidc<>+0(SB), Y13  // LOG2E
	VBROADCASTSD sigmoidc<>+8(SB), Y12  // LN2U
	VBROADCASTSD sigmoidc<>+16(SB), Y11 // LN2L
	VBROADCASTSD sigmoidc<>+24(SB), Y10 // 1/16
	VBROADCASTSD sigmoidc<>+96(SB), Y9  // 2
	VBROADCASTSD sigmoidc<>+88(SB), Y8  // 1
	VBROADCASTSD sigmoidc<>+104(SB), Y15
	VBROADCASTSD sigmoidc<>+112(SB), Y14
	VPBROADCASTQ sigmoidc<>+120(SB), Y7
sigmoidLoop:
	CMPQ AX, CX
	JGE  sigmoidDone
	VMOVUPD (DI)(AX*8), Y0
	VORPD Y15, Y0, Y1              // t = −|x|
	VCMPPD $0x1d, Y14, Y1, Y2      // t ≥ −708 (GE_OQ: false for NaN)
	VMOVMSKPD Y2, BX
	CMPQ BX, $15
	JNE  sigmoidDone
	VMULPD Y13, Y1, Y2             // t·LOG2E
	VCVTPD2DQY Y2, X3              // k, rounded to nearest as CVTSD2SL does
	VCVTDQ2PD X3, Y2
	VFNMADD231PD Y12, Y2, Y1       // t − k·LN2U
	VFNMADD231PD Y11, Y2, Y1       // − k·LN2L
	VMULPD Y10, Y1, Y1             // r = ·/16
	VBROADCASTSD sigmoidc<>+32(SB), Y4
	TAYLOR(40)
	TAYLOR(48)
	TAYLOR(56)
	TAYLOR(64)
	TAYLOR(72)
	TAYLOR(80)
	TAYLOR(88)
	VMULPD Y4, Y1, Y5              // y = r·p
	VADDPD Y9, Y5, Y4              // y = y·(y+2), three times
	VMULPD Y4, Y5, Y5
	VADDPD Y9, Y5, Y4
	VMULPD Y4, Y5, Y5
	VADDPD Y9, Y5, Y4
	VMULPD Y4, Y5, Y5
	VADDPD Y9, Y5, Y4
	VFMADD213PD Y8, Y4, Y5         // y = (y+2)·y + 1
	VPMOVSXDQ X3, Y3               // 2^k: (k + 1023) << 52
	VPADDQ Y7, Y3, Y3
	VPSLLQ $52, Y3, Y3
	VMULPD Y3, Y5, Y5              // e = exp(t)
	VBLENDVPD Y0, Y5, Y8, Y4       // x < 0 ? e : 1 (x's sign bit)
	VADDPD Y8, Y5, Y5              // 1 + e
	VDIVPD Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sigmoidLoop
sigmoidDone:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func spmmDotFMA(c *float64, cStride int, rowPtr *int, colIdx *int, val *float64, b *float64, rows int, alpha float64)
//
// The sparse forward for one unit: for r < rows, c[r·cStride] (stride in
// bytes) += alpha · Σ_t val[t]·b[colIdx[t]] over t in [rowPtr[r],
// rowPtr[r+1]), the sum from +0 with one VFMADD231SD per term in ascending t
// and alpha after the last term, multiply and add rounded apart — what
// spmmRange's Go loop does with math.FMA, without its per-term CPUID test.
TEXT ·spmmDotFMA(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ cStride+8(FP), R8
	MOVQ rowPtr+16(FP), SI
	MOVQ colIdx+24(FP), R9
	MOVQ val+32(FP), R10
	MOVQ b+40(FP), R11
	MOVQ rows+48(FP), CX
	VMOVSD alpha+56(FP), X1
	TESTQ CX, CX
	JLE  spDone
spRow:
	MOVQ (SI), AX
	MOVQ 8(SI), DX
	VXORPD X0, X0, X0
	CMPQ AX, DX
	JGE  spStore
spTerm:
	MOVQ (R9)(AX*8), BX
	VMOVSD (R10)(AX*8), X2
	VFMADD231SD (R11)(BX*8), X2, X0
	INCQ AX
	CMPQ AX, DX
	JLT  spTerm
spStore:
	VMULSD X1, X0, X0
	VADDSD (DI), X0, X0
	VMOVSD X0, (DI)
	ADDQ R8, DI
	ADDQ $8, SI
	DECQ CX
	JNZ  spRow
spDone:
	RET
