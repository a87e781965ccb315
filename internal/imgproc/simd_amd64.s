//go:build amd64 && !purego

#include "textflag.h"

// SIMD packed kernels. Each routine mirrors a pure-Go kernel in
// packedkernels.go / packed.go bit for bit; the Go versions stay compiled
// as the dispatch fallback and as the differential oracle for these.
//
// Shared conventions:
//   - 4-word (256-bit) lanes; the final loop iteration restarts at n-4 and
//     overlaps the previous one, which is safe because every store is a
//     pure function of the loaded inputs (idempotent).
//   - The median kernels stage vertical-count bit-planes through scratch
//     rows padded with one zero word per side, so the horizontal ±1/±2
//     column shifts can always read word k-1 and k+1 unconditionally.
//   - Popcount is VPSHUFB nibble lookup + VPSADBW.

// Byte popcount table for VPSHUFB: popLUT[i] = bits.OnesCount(i), i < 16,
// repeated per 128-bit lane.
DATA popLUT<>+0(SB)/8, $0x0302020102010100
DATA popLUT<>+8(SB)/8, $0x0403030203020201
DATA popLUT<>+16(SB)/8, $0x0302020102010100
DATA popLUT<>+24(SB)/8, $0x0403030203020201
GLOBL popLUT<>(SB), RODATA|NOPTR, $32

DATA nibMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+8(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+16(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA nibMask<>+24(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibMask<>(SB), RODATA|NOPTR, $32

// Qword lane indices 0..3, the multiplier that turns a broadcast s1 into
// the per-lane shift counts [0, s1, 2*s1, 3*s1].
DATA idx0123<>+0(SB)/8, $0
DATA idx0123<>+8(SB)/8, $1
DATA idx0123<>+16(SB)/8, $2
DATA idx0123<>+24(SB)/8, $3
GLOBL idx0123<>(SB), RODATA|NOPTR, $32

// func median3AsmAVX2(out, v0, v1, ra, rb, rc *uint64, n int)
//
// Pass 1 computes the vertical 3-row carry-save planes (low plane a^b^c,
// high plane majority) into v0/v1 elements [1, n], zeroing pads 0 and n+1.
// Pass 2 aligns the neighbour columns with ±1-bit shifts (borrowing the
// carry bit from the unaligned-loaded adjacent word) and evaluates the
// exact boolean network of median3Run: patch count > 4.
TEXT ·median3AsmAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ v0+8(FP), R8
	MOVQ v1+16(FP), R9
	MOVQ ra+24(FP), SI
	MOVQ rb+32(FP), BX
	MOVQ rc+40(FP), DX
	MOVQ n+48(FP), CX

	// Pass 1: vertical planes.
	XORQ AX, AX
	MOVQ CX, R10
	SUBQ $4, R10

m3vert:
	VMOVDQU (SI)(AX*8), Y0  // a
	VMOVDQU (BX)(AX*8), Y1  // b
	VMOVDQU (DX)(AX*8), Y2  // c
	VPXOR   Y1, Y0, Y3      // ab = a^b
	VPAND   Y1, Y0, Y4      // a&b
	VPXOR   Y2, Y3, Y5      // v0 = ab^c
	VPAND   Y2, Y3, Y6      // ab&c
	VPOR    Y6, Y4, Y6      // v1 = a&b | ab&c
	VMOVDQU Y5, 8(R8)(AX*8)
	VMOVDQU Y6, 8(R9)(AX*8)
	CMPQ    AX, R10
	JGE     m3vertdone
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLE     m3vert
	MOVQ    R10, AX
	JMP     m3vert

m3vertdone:
	XORQ R11, R11
	MOVQ R11, (R8)
	MOVQ R11, (R9)
	MOVQ R11, 8(R8)(CX*8)
	MOVQ R11, 8(R9)(CX*8)

	// Pass 2: horizontal majority network, 4 output words per iteration.
	XORQ AX, AX

m3horiz:
	VMOVDQU (R8)(AX*8), Y0   // P0 (word k-1, low plane)
	VMOVDQU 8(R8)(AX*8), Y1  // c0 (word k)
	VMOVDQU 16(R8)(AX*8), Y2 // N0 (word k+1)
	VPSLLQ  $1, Y1, Y3
	VPSRLQ  $63, Y0, Y4
	VPOR    Y4, Y3, Y3       // l0 = c0<<1 | P0>>63
	VPSRLQ  $1, Y1, Y4
	VPSLLQ  $63, Y2, Y5
	VPOR    Y5, Y4, Y4       // r0 = c0>>1 | N0<<63
	VMOVDQU (R9)(AX*8), Y0   // P1 (high plane)
	VMOVDQU 8(R9)(AX*8), Y5  // c1
	VMOVDQU 16(R9)(AX*8), Y2 // N1
	VPSLLQ  $1, Y5, Y6
	VPSRLQ  $63, Y0, Y7
	VPOR    Y7, Y6, Y6       // l1
	VPSRLQ  $1, Y5, Y7
	VPSLLQ  $63, Y2, Y8
	VPOR    Y8, Y7, Y7       // r1

	// t = left + centre + right, then median = t3 | t2&(t1|t0).
	VPXOR   Y1, Y3, Y0   // x0 = l0^c0
	VPAND   Y1, Y3, Y2   // g0 = l0&c0
	VPXOR   Y5, Y6, Y8   // xa = l1^c1
	VPXOR   Y2, Y8, Y9   // x1 = xa^g0
	VPAND   Y5, Y6, Y10  // l1&c1
	VPAND   Y8, Y2, Y11  // g0&xa
	VPOR    Y11, Y10, Y10 // x2
	VPXOR   Y4, Y0, Y11  // t0 = x0^r0
	VPAND   Y4, Y0, Y12  // h0 = x0&r0
	VPXOR   Y7, Y9, Y13  // tb = x1^r1
	VPXOR   Y12, Y13, Y14 // t1 = tb^h0
	VPAND   Y7, Y9, Y15  // x1&r1
	VPAND   Y13, Y12, Y1 // h0&tb
	VPOR    Y1, Y15, Y15 // h1
	VPXOR   Y15, Y10, Y2 // t2 = x2^h1
	VPAND   Y15, Y10, Y3 // t3 = x2&h1
	VPOR    Y11, Y14, Y0 // t1|t0
	VPAND   Y0, Y2, Y0
	VPOR    Y0, Y3, Y0
	VMOVDQU Y0, (DI)(AX*8)
	CMPQ    AX, R10
	JGE     m3done
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLE     m3horiz
	MOVQ    R10, AX
	JMP     m3horiz

m3done:
	VZEROUPPER
	RET

// func median5AsmAVX2(out, v0, v1, v2, r0, r1, r2, r3, r4 *uint64, n int)
//
// Pass 1 computes the three vertical 5-row carry-save planes into
// v0/v1/v2 elements [1, n] (pads 0 and n+1 zeroed — the ±2 column shifts
// still borrow from at most the adjacent word). Pass 2 is the fully
// unrolled Wallace tree of median5Run, staged plane-by-plane so the live
// set fits the 16 vector registers: patch count > 12.
TEXT ·median5AsmAVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ v0+8(FP), R8
	MOVQ v1+16(FP), R9
	MOVQ v2+24(FP), R14
	MOVQ r0+32(FP), SI
	MOVQ r1+40(FP), BX
	MOVQ r2+48(FP), DX
	MOVQ r3+56(FP), R11
	MOVQ r4+64(FP), R12
	MOVQ n+72(FP), CX

	// Pass 1: vertical planes (counts 0..5 in three bit planes).
	XORQ AX, AX
	MOVQ CX, R10
	SUBQ $4, R10

m5vert:
	VMOVDQU (SI)(AX*8), Y0   // a
	VMOVDQU (BX)(AX*8), Y1   // b
	VMOVDQU (DX)(AX*8), Y2   // c
	VMOVDQU (R11)(AX*8), Y3  // d
	VMOVDQU (R12)(AX*8), Y4  // e
	VPXOR   Y1, Y0, Y5       // ab
	VPAND   Y1, Y0, Y6       // a&b
	VPXOR   Y2, Y5, Y7       // s0 = ab^c
	VPAND   Y2, Y5, Y8       // ab&c
	VPOR    Y8, Y6, Y6       // c0
	VPXOR   Y3, Y7, Y8       // sd = s0^d
	VPAND   Y3, Y7, Y9       // s0&d
	VPXOR   Y4, Y8, Y10      // v0 = sd^e
	VPAND   Y4, Y8, Y11      // sd&e
	VPOR    Y11, Y9, Y9      // c1
	VPXOR   Y9, Y6, Y12      // v1 = c0^c1
	VPAND   Y9, Y6, Y13      // v2 = c0&c1
	VMOVDQU Y10, 8(R8)(AX*8)
	VMOVDQU Y12, 8(R9)(AX*8)
	VMOVDQU Y13, 8(R14)(AX*8)
	CMPQ    AX, R10
	JGE     m5vertdone
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLE     m5vert
	MOVQ    R10, AX
	JMP     m5vert

m5vertdone:
	XORQ R13, R13
	MOVQ R13, (R8)
	MOVQ R13, (R9)
	MOVQ R13, (R14)
	MOVQ R13, 8(R8)(CX*8)
	MOVQ R13, 8(R9)(CX*8)
	MOVQ R13, 8(R14)(CX*8)

	// Pass 2: five shifted copies per plane, Wallace tree by weight.
	XORQ AX, AX

m5horiz:
	// Plane 0 (weight 1): shifted copies a,b,m,d,e then reduce with two
	// full adders. Carried out: t0 (Y9), cA (Y6), cB (Y8).
	VMOVDQU (R8)(AX*8), Y0   // P
	VMOVDQU 8(R8)(AX*8), Y2  // m
	VMOVDQU 16(R8)(AX*8), Y3 // N
	VPSLLQ  $2, Y2, Y5
	VPSRLQ  $62, Y0, Y1
	VPOR    Y1, Y5, Y1       // a = m<<2 | P>>62
	VPSLLQ  $1, Y2, Y5
	VPSRLQ  $63, Y0, Y0
	VPOR    Y0, Y5, Y0       // b = m<<1 | P>>63
	VPSRLQ  $1, Y2, Y5
	VPSLLQ  $63, Y3, Y4
	VPOR    Y4, Y5, Y4       // d = m>>1 | N<<63
	VPSRLQ  $2, Y2, Y5
	VPSLLQ  $62, Y3, Y3
	VPOR    Y3, Y5, Y3       // e = m>>2 | N<<62
	VPXOR   Y0, Y1, Y5       // x = a^b
	VPAND   Y0, Y1, Y6       // a&b
	VPXOR   Y2, Y5, Y7       // sA = x^m
	VPAND   Y2, Y5, Y8       // x&m
	VPOR    Y8, Y6, Y6       // cA
	VPXOR   Y4, Y7, Y5       // x = sA^d
	VPAND   Y4, Y7, Y8       // sA&d
	VPXOR   Y3, Y5, Y9       // t0 = x^e
	VPAND   Y3, Y5, Y10      // x&e
	VPOR    Y10, Y8, Y8      // cB

	// Plane 1 (weight 2). Carried out: t0, t1 (Y14), cC (Y7), cD (Y11),
	// cE (Y13).
	VMOVDQU (R9)(AX*8), Y0
	VMOVDQU 8(R9)(AX*8), Y2
	VMOVDQU 16(R9)(AX*8), Y3
	VPSLLQ  $2, Y2, Y5
	VPSRLQ  $62, Y0, Y1
	VPOR    Y1, Y5, Y1       // a1
	VPSLLQ  $1, Y2, Y5
	VPSRLQ  $63, Y0, Y0
	VPOR    Y0, Y5, Y0       // b1
	VPSRLQ  $1, Y2, Y5
	VPSLLQ  $63, Y3, Y4
	VPOR    Y4, Y5, Y4       // d1
	VPSRLQ  $2, Y2, Y5
	VPSLLQ  $62, Y3, Y3
	VPOR    Y3, Y5, Y3       // e1
	VPXOR   Y0, Y1, Y5       // x = a1^b1
	VPAND   Y0, Y1, Y7       // a1&b1
	VPXOR   Y2, Y5, Y10      // sC = x^m1
	VPAND   Y2, Y5, Y11      // x&m1
	VPOR    Y11, Y7, Y7      // cC
	VPXOR   Y3, Y4, Y5       // x = d1^e1
	VPAND   Y3, Y4, Y11      // d1&e1
	VPXOR   Y6, Y5, Y12      // sD = x^cA
	VPAND   Y6, Y5, Y13      // x&cA
	VPOR    Y13, Y11, Y11    // cD
	VPXOR   Y10, Y12, Y5     // x = sC^sD
	VPAND   Y10, Y12, Y13    // sC&sD
	VPXOR   Y8, Y5, Y14      // t1 = x^cB
	VPAND   Y8, Y5, Y15      // x&cB
	VPOR    Y15, Y13, Y13    // cE

	// Plane 2 (weight 4). Carried out: t0, t1, t2 (Y0), cF (Y6),
	// cG (Y10), cH (Y15), cI (Y1).
	VMOVDQU (R14)(AX*8), Y0
	VMOVDQU 8(R14)(AX*8), Y2
	VMOVDQU 16(R14)(AX*8), Y3
	VPSLLQ  $2, Y2, Y5
	VPSRLQ  $62, Y0, Y1
	VPOR    Y1, Y5, Y1       // a2
	VPSLLQ  $1, Y2, Y5
	VPSRLQ  $63, Y0, Y0
	VPOR    Y0, Y5, Y0       // b2
	VPSRLQ  $1, Y2, Y5
	VPSLLQ  $63, Y3, Y4
	VPOR    Y4, Y5, Y4       // d2
	VPSRLQ  $2, Y2, Y5
	VPSLLQ  $62, Y3, Y3
	VPOR    Y3, Y5, Y3       // e2
	VPXOR   Y0, Y1, Y5       // x = a2^b2
	VPAND   Y0, Y1, Y6       // a2&b2
	VPXOR   Y2, Y5, Y8       // sF = x^m2
	VPAND   Y2, Y5, Y10      // x&m2
	VPOR    Y10, Y6, Y6      // cF
	VPXOR   Y3, Y4, Y5       // x = d2^e2
	VPAND   Y3, Y4, Y10      // d2&e2
	VPXOR   Y7, Y5, Y12      // sG = x^cC
	VPAND   Y7, Y5, Y15      // x&cC
	VPOR    Y15, Y10, Y10    // cG
	VPXOR   Y8, Y12, Y5      // x = sF^sG
	VPAND   Y8, Y12, Y15     // sF&sG
	VPXOR   Y11, Y5, Y7      // sH = x^cD
	VPAND   Y11, Y5, Y12     // x&cD
	VPOR    Y12, Y15, Y15    // cH
	VPXOR   Y13, Y7, Y0      // t2 = sH^cE
	VPAND   Y13, Y7, Y1      // cI = sH&cE

	// Weight 8 and the threshold: total <= 25 so at most one bit lands
	// at weight 16; out = t4 | t3&t2&(t1|t0).
	VPXOR   Y6, Y10, Y5      // x = cF^cG
	VPAND   Y6, Y10, Y2      // cF&cG
	VPXOR   Y15, Y5, Y3      // sJ = x^cH
	VPAND   Y15, Y5, Y4      // x&cH
	VPOR    Y4, Y2, Y2       // cJ
	VPXOR   Y1, Y3, Y4       // t3 = sJ^cI
	VPAND   Y1, Y3, Y5       // cK = sJ&cI
	VPOR    Y5, Y2, Y2       // t4 = cJ|cK
	VPOR    Y9, Y14, Y5      // t1|t0
	VPAND   Y0, Y5, Y5       // &t2
	VPAND   Y4, Y5, Y5       // &t3
	VPOR    Y2, Y5, Y5       // |t4
	VMOVDQU Y5, (DI)(AX*8)
	CMPQ    AX, R10
	JGE     m5done
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLE     m5horiz
	MOVQ    R10, AX
	JMP     m5horiz

m5done:
	VZEROUPPER
	RET

// func popcntWordsAsmAVX2(p *uint64, n int) int
TEXT ·popcntWordsAsmAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VMOVDQU popLUT<>(SB), Y15
	VMOVDQU nibMask<>(SB), Y14
	VPXOR   Y13, Y13, Y13
	VPXOR   Y12, Y12, Y12 // qword totals
	XORQ    AX, AX
	MOVQ    CX, DX
	ANDQ    $-8, DX
	TESTQ   DX, DX
	JZ      pw2tail

pw2loop:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VPAND   Y14, Y0, Y2
	VPSRLQ  $4, Y0, Y0
	VPAND   Y14, Y0, Y0
	VPSHUFB Y2, Y15, Y2
	VPSHUFB Y0, Y15, Y0
	VPADDB  Y0, Y2, Y2  // byte counts of words 0-3 (<= 8 each)
	VPAND   Y14, Y1, Y3
	VPSRLQ  $4, Y1, Y1
	VPAND   Y14, Y1, Y1
	VPSHUFB Y3, Y15, Y3
	VPSHUFB Y1, Y15, Y1
	VPADDB  Y1, Y3, Y3  // byte counts of words 4-7
	VPADDB  Y3, Y2, Y2  // <= 16 per byte, no overflow
	VPSADBW Y13, Y2, Y2
	VPADDQ  Y2, Y12, Y12
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      pw2loop

pw2tail:
	XORQ R8, R8
	CMPQ AX, CX
	JGE  pw2sum

pw2tailloop:
	MOVQ    (SI)(AX*8), R9
	POPCNTQ R9, R9
	ADDQ    R9, R8
	INCQ    AX
	CMPQ    AX, CX
	JL      pw2tailloop

pw2sum:
	VEXTRACTI128 $1, Y12, X0
	VPADDQ       X0, X12, X0
	VPSRLDQ      $8, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	ADDQ         R8, AX
	MOVQ         AX, ret+16(FP)
	VZEROUPPER
	RET

// func blockPopAsmAVX2(row *uint64, rowLen, off, s1 int, acc *int, n int) int
//
// Four s1-wide blocks per iteration: one 64-bit fetch at the (byte-
// clamped) bit offset covers all four because 7 + 4*s1 <= 63 for
// s1 <= blockPopMaxS1; VPSRLVQ spreads the blocks across qword lanes.
// The clamp keeps the 8-byte load inside the row: near the row end the
// load drops back to rowBytes-8 and the shift grows by the same amount
// (still < 64 because the caller guarantees every block is in bounds).
TEXT ·blockPopAsmAVX2(SB), NOSPLIT, $0-56
	MOVQ    row+0(FP), SI
	MOVQ    rowLen+8(FP), R9
	SHLQ    $3, R9
	SUBQ    $8, R9           // rowBytes-8
	MOVQ    off+16(FP), R8   // b: bit offset of the next block
	MOVQ    s1+24(FP), R10
	MOVQ    acc+32(FP), DI
	VMOVDQU popLUT<>(SB), Y15
	VMOVDQU nibMask<>(SB), Y14
	VPXOR   Y13, Y13, Y13
	VPXOR   Y10, Y10, Y10    // vector total
	MOVQ    R10, CX
	MOVQ    $1, R12
	SHLQ    CX, R12
	DECQ    R12              // block mask (1<<s1)-1
	VMOVQ   R12, X0
	VPBROADCASTQ X0, Y12
	VMOVQ   R10, X0
	VPBROADCASTQ X0, Y11
	VPMULUDQ idx0123<>(SB), Y11, Y11 // lane shifts [0, s1, 2s1, 3s1]
	LEAQ    (R10)(R10*2), R13
	ADDQ    R10, R13         // 4*s1
	MOVQ    n+40(FP), DX
	ANDQ    $-4, DX
	XORQ    BX, BX           // block index
	XORQ    R15, R15         // scalar total
	TESTQ   DX, DX
	JZ      bp2tail

bp2loop:
	MOVQ R8, AX
	SHRQ $3, AX
	CMPQ AX, R9
	JLE  bp2ok
	MOVQ R9, AX

bp2ok:
	MOVQ    (SI)(AX*1), R11
	SHLQ    $3, AX
	MOVQ    R8, CX
	SUBQ    AX, CX
	SHRQ    CX, R11          // 64 row bits from bit offset b
	VMOVQ   R11, X0
	VPBROADCASTQ X0, Y0
	VPSRLVQ Y11, Y0, Y0
	VPAND   Y12, Y0, Y0      // four blocks, one per qword lane
	VPAND   Y14, Y0, Y1
	VPSRLQ  $4, Y0, Y2
	VPAND   Y14, Y2, Y2
	VPSHUFB Y1, Y15, Y1
	VPSHUFB Y2, Y15, Y2
	VPADDB  Y2, Y1, Y1
	VPSADBW Y13, Y1, Y1      // per-lane popcounts
	VMOVDQU (DI)(BX*8), Y2
	VPADDQ  Y1, Y2, Y2
	VMOVDQU Y2, (DI)(BX*8)
	VPADDQ  Y1, Y10, Y10
	ADDQ    R13, R8
	ADDQ    $4, BX
	CMPQ    BX, DX
	JL      bp2loop

bp2tail:
	MOVQ n+40(FP), DX
	CMPQ BX, DX
	JGE  bp2sum

bp2tailloop:
	MOVQ R8, AX
	SHRQ $3, AX
	CMPQ AX, R9
	JLE  bp2tok
	MOVQ R9, AX

bp2tok:
	MOVQ    (SI)(AX*1), R11
	SHLQ    $3, AX
	MOVQ    R8, CX
	SUBQ    AX, CX
	SHRQ    CX, R11
	ANDQ    R12, R11
	POPCNTQ R11, R11
	ADDQ    R11, (DI)(BX*8)
	ADDQ    R11, R15
	ADDQ    R10, R8
	INCQ    BX
	CMPQ    BX, DX
	JL      bp2tailloop

bp2sum:
	VEXTRACTI128 $1, Y10, X0
	VPADDQ       X0, X10, X0
	VPSRLDQ      $8, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, AX
	ADDQ         R15, AX
	MOVQ         AX, ret+48(FP)
	VZEROUPPER
	RET
