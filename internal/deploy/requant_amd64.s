//go:build amd64 && !purego

#include "textflag.h"

// AVX2 requant rows: dst[j] = clamp(relu(Mult.Apply(acc[j]) + b)) for the
// first len(dst) &^ 7 columns, 8 at a time; the Go rows in collane.go run
// the tail. Exact for multipliers with Shift in [1, 62]; the dispatch sends
// every other Mult (the zero and the saturated encodings) to the Go rows.
//
// One 8-column body computes the rounding identity of the Go rows,
// r = int32((p + half + (p >> 63)) >> Shift) with p = acc·Mant:
//
//	p        VPMULDQ on the even int32 lanes, and on the odd ones moved down
//	         by VPSRLQ $32, so each product is exact in 64 bits (|p| ≤ 2⁶²)
//	+ half   VPADDQ of 1 << (Shift−1); with |p| ≤ 2⁶² and half ≤ 2⁶¹ the
//	+ sign   sum cannot wrap. VPCMPGTQ against zero gives p >> 63 (0 or −1)
//	>> Shift VPSRLVQ, then a 32-bit sign repair r = (r ⊕ k) − k
//
// VPSRLVQ is the logical shift by a per-lane count vector: one µop, where
// VPSRLQ by an xmm count is two. AVX2 has no 64-bit arithmetic right shift
// (VPSRAQ is AVX-512). A logical shift by s leaves bits s..63 of v in place
// and zero-fills above them, so the low 32 bits of the result are exact
// while s ≤ 32. For s > 32 the top s − 32 bits of the low half are zero
// fill where the arithmetic shift has copies of the sign bit, which sits at
// bit 63 − s; with k = 1 << (63 − s), (r ⊕ k) − k sign-extends from exactly
// that bit, and 32-bit wrapping arithmetic keeps the low 32 bits exact.
// k = 0 below s = 32, and at s = 32 the repair is the identity mod 2³², so
// k is 1 << (63 − s) for s ≥ 32, else 0. Shift 63 would let p + half wrap;
// Validate rejects it.
//
// requantI8AVX2's epilogue adds the bias with a wrapping VPADDD (the Go
// rows' int32 add), applies the floor (0 under ReLU, else −128) with
// VPMAXSD and clamps through signed saturating packs: VPACKSSDW to int16,
// then VPACKSSWB to int8. With bias 0 and floor −128 it is the int8 hidden
// rescale too. requantHid16AVX2 stops at the int16 pack. Packs work within
// 128-bit halves, so the upper four columns are extracted first.
// Every instruction is VEX-encoded: a legacy-SSE store between AVX
// instructions pays a state transition on some cores.
//
// Register use:
//	DI   dst cursor         SI   acc cursor        DX   8-column groups left
//	Y15  Mant (dwords)      Y14  Shift (qwords)    Y13  half (qwords)
//	Y12  k (dwords)         Y11  zero
//	Y10  bias (dwords)      Y9   floor (dwords)    requantI8AVX2 only

// CONSTS loads the row pointers and the multiplier constants. Both kernels
// share the argument layout up to shift.
#define CONSTS \
	MOVQ    dst_base+0(FP), DI; \
	MOVQ    dst_len+8(FP), DX; \
	MOVQ    acc_base+24(FP), SI; \
	MOVL    mant+48(FP), AX; \
	VMOVD   AX, X15; \
	VPBROADCASTD X15, Y15; \
	MOVBQZX shift+52(FP), BX; \
	VMOVQ   BX, X14; \
	VPBROADCASTQ X14, Y14; \
	LEAQ    -1(BX), CX; \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	VMOVQ   AX, X13; \
	VPBROADCASTQ X13, Y13; \
	MOVL    $63, CX; \
	SUBL    BX, CX; \
	MOVL    $1, AX; \
	SHLL    CX, AX; \
	XORL    R8, R8; \
	CMPL    BX, $32; \
	CMOVLCC AX, R8; \
	VMOVD   R8, X12; \
	VPBROADCASTD X12, Y12; \
	VPXOR   Y11, Y11, Y11

// BODY8 leaves the eight int32 results for the columns at SI in Y0.
#define BODY8 \
	VMOVDQU  (SI), Y0; \
	VPSRLQ   $32, Y0, Y1; \
	VPMULDQ  Y15, Y0, Y0; \
	VPMULDQ  Y15, Y1, Y1; \
	VPCMPGTQ Y0, Y11, Y2; \
	VPCMPGTQ Y1, Y11, Y3; \
	VPADDQ   Y13, Y0, Y0; \
	VPADDQ   Y13, Y1, Y1; \
	VPADDQ   Y2, Y0, Y0; \
	VPADDQ   Y3, Y1, Y1; \
	VPSRLVQ  Y14, Y0, Y0; \
	VPSRLVQ  Y14, Y1, Y1; \
	VPSLLQ   $32, Y1, Y1; \
	VPBLENDD $0xAA, Y1, Y0, Y0; \
	VPXOR    Y12, Y0, Y0; \
	VPSUBD   Y12, Y0, Y0

// PACK16 saturates the eight int32 results in Y0 to int16 in X0.
#define PACK16 \
	VEXTRACTI128 $1, Y0, X1; \
	VPACKSSDW    X1, X0, X0

// func requantI8AVX2(dst []int8, acc []int32, mant int32, shift uint8, b, lo int32)
TEXT ·requantI8AVX2(SB), NOSPLIT, $0-64
	CONSTS
	MOVL    b+56(FP), AX
	VMOVD   AX, X10
	VPBROADCASTD X10, Y10
	MOVL    lo+60(FP), AX
	VMOVD   AX, X9
	VPBROADCASTD X9, Y9

	SHRQ    $3, DX
	JZ      i8done

i8loop:
	BODY8
	VPADDD  Y10, Y0, Y0
	VPMAXSD Y9, Y0, Y0
	PACK16
	VPACKSSWB X0, X0, X0
	VMOVQ   X0, (DI)
	ADDQ    $32, SI
	ADDQ    $8, DI
	DECQ    DX
	JNZ     i8loop

i8done:
	VZEROUPPER
	RET

// func requantHid16AVX2(dst []int16, acc []int32, mant int32, shift uint8)
TEXT ·requantHid16AVX2(SB), NOSPLIT, $0-53
	CONSTS

	SHRQ    $3, DX
	JZ      h16done

h16loop:
	BODY8
	PACK16
	VMOVDQU X0, (DI)
	ADDQ    $32, SI
	ADDQ    $16, DI
	DECQ    DX
	JNZ     h16loop

h16done:
	VZEROUPPER
	RET
