//go:build amd64 && !purego

#include "textflag.h"

// AVX2 ternary row walk: acc[j] = Σ₊ planes[p·stride+j] − Σ₋ planes[m·stride+j]
// for j in [0, len(acc)). Columns are swept 64 at a time — eight ymm int32
// accumulators (Y0–Y7) live in registers for the whole pass over the row's
// ±1 index runs, each index costing eight sign-extending loads and eight
// adds — then 8 at a time through Y0 alone. len(acc) must be a multiple of
// 8; the Go side (walk.go) proves every read in bounds before the call.
//
// Register use:
//	DI   acc cursor          DX   columns left
//	R8   planes + column     BX   plane stride in bytes
//	R10  plus runs           R11  len(plus)
//	R12  minus runs          R13  len(minus)
//	SI   index cursor        CX   indices left
//	AX   plane address

// SWEEP64 adds (OP = VPADDD) or subtracts (OP = VPSUBD) the 64 columns at AX,
// sign-extended to int32 by CVT from elements W bytes wide, into Y0–Y7.
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

// WALK is the whole row walk for elements W bytes wide, widened by CVT.
#define WALK(CVT, W) \
	MOVQ acc_base+0(FP), DI; \
	MOVQ acc_len+8(FP), DX; \
	MOVQ planes_base+24(FP), R8; \
	MOVQ plus_base+48(FP), R10; \
	MOVQ plus_len+56(FP), R11; \
	MOVQ minus_base+72(FP), R12; \
	MOVQ minus_len+80(FP), R13; \
	MOVQ stride+96(FP), BX; \
	IMULQ $W, BX; \
tile:; \
	CMPQ DX, $64; \
	JLT  step; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	MOVQ R10, SI; \
	MOVQ R11, CX; \
	TESTQ CX, CX; \
	JZ   tileminus; \
tileplus:; \
	MOVLQSX (SI), AX; \
	IMULQ BX, AX; \
	ADDQ R8, AX; \
	SWEEP64(CVT, W, VPADDD); \
	ADDQ $4, SI; \
	DECQ CX; \
	JNZ  tileplus; \
tileminus:; \
	MOVQ R12, SI; \
	MOVQ R13, CX; \
	TESTQ CX, CX; \
	JZ   tilestore; \
tileminusloop:; \
	MOVLQSX (SI), AX; \
	IMULQ BX, AX; \
	ADDQ R8, AX; \
	SWEEP64(CVT, W, VPSUBD); \
	ADDQ $4, SI; \
	DECQ CX; \
	JNZ  tileminusloop; \
tilestore:; \
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
step:; \
	CMPQ DX, $8; \
	JLT  done; \
	VPXOR Y0, Y0, Y0; \
	MOVQ R10, SI; \
	MOVQ R11, CX; \
	TESTQ CX, CX; \
	JZ   stepminus; \
stepplus:; \
	MOVLQSX (SI), AX; \
	IMULQ BX, AX; \
	CVT  (R8)(AX*1), Y8; \
	VPADDD Y8, Y0, Y0; \
	ADDQ $4, SI; \
	DECQ CX; \
	JNZ  stepplus; \
stepminus:; \
	MOVQ R12, SI; \
	MOVQ R13, CX; \
	TESTQ CX, CX; \
	JZ   stepstore; \
stepminusloop:; \
	MOVLQSX (SI), AX; \
	IMULQ BX, AX; \
	CVT  (R8)(AX*1), Y8; \
	VPSUBD Y8, Y0, Y0; \
	ADDQ $4, SI; \
	DECQ CX; \
	JNZ  stepminusloop; \
stepstore:; \
	VMOVDQU Y0, (DI); \
	ADDQ $32, DI; \
	ADDQ $(8*W), R8; \
	SUBQ $8, DX; \
	JMP  step; \
done:; \
	VZEROUPPER; \
	RET

// func walkI8AVX2(acc []int32, planes []byte, plus, minus []int32, stride int)
TEXT ·walkI8AVX2(SB), NOSPLIT, $0-104
	WALK(VPMOVSXBD, 1)

// func walkI16AVX2(acc []int32, planes []int16, plus, minus []int32, stride int)
TEXT ·walkI16AVX2(SB), NOSPLIT, $0-104
	WALK(VPMOVSXWD, 2)

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
