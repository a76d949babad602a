//go:build amd64 && !purego

#include "textflag.h"

// AVX2 ternary row walk: acc[j] = Σ₊ planes[p·stride+j] − Σ₋ planes[m·stride+j]
// for j in [0, len(acc)), the planes p and m selected by one row's ±1 plane
// masks (sparseRows, kernels.go): masks holds the row's +1 words, then as
// many −1 words, bit b of word k standing for plane 64k+b.
//
// Columns are swept 64 at a time — eight ymm int32 accumulators (Y0–Y7)
// live in registers for the whole pass over the row's masks, each set bit
// costing eight sign-extending loads and eight adds — and the remainder
// (len(acc) mod 64, a multiple of 8 below 64) in at most one 32-, one 16-
// and one 8-column pass through Y0–Y3, Y0–Y1 and Y0. Every pass decodes the
// masks once: a 56-column hop band runs three passes, not seven.
//
// A mask word decodes by BSFQ, then clears its lowest set bit with LEAQ
// and ANDQ (baseline amd64: no BMI1 TZCNT/BLSR, so no CPU check beyond
// AVX2). BSFQ leaves its destination unchanged on a zero source, so the CPU
// makes it wait for the destination's last write; an XORL zeroing idiom
// before each BSFQ breaks that false dependency, which would otherwise
// chain every decode to the previous plane address.
//
// len(acc) must be a multiple of 8; the Go side (walk.go) proves every read
// in bounds before the call.
//
// Register use:
//	DI   acc cursor              DX   columns left
//	R8   planes + column         BX   plane stride in bytes
//	R10  the row's mask words    R11  bytes of one sign's words (8·words)
//	SI   mask word cursor        R13  end of the current sign's words
//	CX   bits left in the word   R9   plane of the word's bit 0 (64k)
//	AX   plane address           R12  CX − 1, to clear the lowest bit

// SWEEPn adds (OP = VPADDD) or subtracts (OP = VPSUBD) the n columns at AX,
// sign-extended to int32 by CVT from elements W bytes wide, into the pass's
// accumulators.
#define SWEEP64(CVT, W, OP) \
	CVT (0*8*W)(AX), Y8; \
	CVT (1*8*W)(AX), Y9; \
	CVT (2*8*W)(AX), Y10; \
	CVT (3*8*W)(AX), Y11; \
	OP  Y8, Y0, Y0; \
	OP  Y9, Y1, Y1; \
	OP  Y10, Y2, Y2; \
	OP  Y11, Y3, Y3; \
	CVT (4*8*W)(AX), Y12; \
	CVT (5*8*W)(AX), Y13; \
	CVT (6*8*W)(AX), Y14; \
	CVT (7*8*W)(AX), Y8; \
	OP  Y12, Y4, Y4; \
	OP  Y13, Y5, Y5; \
	OP  Y14, Y6, Y6; \
	OP  Y8, Y7, Y7

#define SWEEP32(CVT, W, OP) \
	CVT (0*8*W)(AX), Y8; \
	CVT (1*8*W)(AX), Y9; \
	CVT (2*8*W)(AX), Y10; \
	CVT (3*8*W)(AX), Y11; \
	OP  Y8, Y0, Y0; \
	OP  Y9, Y1, Y1; \
	OP  Y10, Y2, Y2; \
	OP  Y11, Y3, Y3

#define SWEEP16(CVT, W, OP) \
	CVT (0*8*W)(AX), Y8; \
	CVT (1*8*W)(AX), Y9; \
	OP  Y8, Y0, Y0; \
	OP  Y9, Y1, Y1

#define SWEEP8(CVT, W, OP) \
	CVT (AX), Y8; \
	OP  Y8, Y0, Y0

// MASKS runs SWEEP once per set bit of the mask words [SI, R13), with AX
// pointing at that bit's plane in the pass's columns. The labels are the
// caller's, unique per expansion.
#define MASKS(SWEEP, wordl, bitl, nextl, endl) \
	XORL R9, R9; \
wordl:; \
	CMPQ SI, R13; \
	JEQ  endl; \
	MOVQ (SI), CX; \
	TESTQ CX, CX; \
	JZ   nextl; \
bitl:; \
	XORL AX, AX; \
	BSFQ CX, AX; \
	ADDQ R9, AX; \
	IMULQ BX, AX; \
	ADDQ R8, AX; \
	SWEEP; \
	LEAQ -1(CX), R12; \
	ANDQ R12, CX; \
	JNZ  bitl; \
nextl:; \
	ADDQ $8, SI; \
	ADDQ $64, R9; \
	JMP  wordl; \
endl:

// PASS sweeps one column block through both signs' masks: the +1 words
// [R10, R10+R11) add, the −1 words after them subtract.
#define PASS(SWEEPN, CVT, W, pw, pb, pn, pe, mw, mb, mn, me) \
	MOVQ R10, SI; \
	LEAQ (R10)(R11*1), R13; \
	MASKS(SWEEPN(CVT, W, VPADDD), pw, pb, pn, pe); \
	ADDQ R11, R13; \
	MASKS(SWEEPN(CVT, W, VPSUBD), mw, mb, mn, me)

// WALK is the whole row walk for elements W bytes wide, widened by CVT.
#define WALK(CVT, W) \
	MOVQ acc_base+0(FP), DI; \
	MOVQ acc_len+8(FP), DX; \
	MOVQ planes_base+24(FP), R8; \
	MOVQ masks_base+48(FP), R10; \
	MOVQ masks_len+56(FP), R11; \
	SHLQ $2, R11; \
	MOVQ stride+72(FP), BX; \
	IMULQ $W, BX; \
tile:; \
	CMPQ DX, $64; \
	JLT  rem32; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	PASS(SWEEP64, CVT, W, t64pw, t64pb, t64pn, t64pe, t64mw, t64mb, t64mn, t64me); \
	VMOVDQU Y0, (DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI); \
	VMOVDQU Y4, 128(DI); \
	VMOVDQU Y5, 160(DI); \
	VMOVDQU Y6, 192(DI); \
	VMOVDQU Y7, 224(DI); \
	ADDQ $256, DI; \
	ADDQ $(64*W), R8; \
	SUBQ $64, DX; \
	JMP  tile; \
rem32:; \
	CMPQ DX, $32; \
	JLT  rem16; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	PASS(SWEEP32, CVT, W, t32pw, t32pb, t32pn, t32pe, t32mw, t32mb, t32mn, t32me); \
	VMOVDQU Y0, (DI); \
	VMOVDQU Y1, 32(DI); \
	VMOVDQU Y2, 64(DI); \
	VMOVDQU Y3, 96(DI); \
	ADDQ $128, DI; \
	ADDQ $(32*W), R8; \
	SUBQ $32, DX; \
rem16:; \
	CMPQ DX, $16; \
	JLT  rem8; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	PASS(SWEEP16, CVT, W, t16pw, t16pb, t16pn, t16pe, t16mw, t16mb, t16mn, t16me); \
	VMOVDQU Y0, (DI); \
	VMOVDQU Y1, 32(DI); \
	ADDQ $64, DI; \
	ADDQ $(16*W), R8; \
	SUBQ $16, DX; \
rem8:; \
	CMPQ DX, $8; \
	JLT  done; \
	VPXOR Y0, Y0, Y0; \
	PASS(SWEEP8, CVT, W, t8pw, t8pb, t8pn, t8pe, t8mw, t8mb, t8mn, t8me); \
	VMOVDQU Y0, (DI); \
done:; \
	VZEROUPPER; \
	RET

// func walkI8AVX2(acc []int32, planes []byte, masks []uint64, stride int)
TEXT ·walkI8AVX2(SB), NOSPLIT, $0-80
	WALK(VPMOVSXBD, 1)

// func walkI16AVX2(acc []int32, planes []int16, masks []uint64, stride int)
TEXT ·walkI16AVX2(SB), NOSPLIT, $0-80
	WALK(VPMOVSXWD, 2)
