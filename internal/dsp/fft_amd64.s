//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the real-input transform (fft.go). A ymm register holds
// two complex128 values as (re, im, re, im). The complex product b·w is
// formed as in Go's complex multiply, (br·wr − bi·wi, br·wi + bi·wr): one
// VMULPD of b by (wr, wr), one of the swapped (bi, br) by (wi, wi), and a
// VADDSUBPD, which subtracts in the real lane and adds in the imaginary one.
// Every lane sees the same multiplies and adds, on the same operands, as the
// Go loops (addition and multiplication commute exactly in IEEE 754, and
// x − y is x + (−y)), and nothing is fused, so the results match bit for
// bit.

// Sign masks and the ¼ of the power scale.
DATA conjMask<>+0(SB)/8, $0x0000000000000000
DATA conjMask<>+8(SB)/8, $0x8000000000000000
DATA conjMask<>+16(SB)/8, $0x0000000000000000
DATA conjMask<>+24(SB)/8, $0x8000000000000000
GLOBL conjMask<>(SB), RODATA|NOPTR, $32

DATA signBit<>+0(SB)/8, $0x8000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $8

DATA quarter<>+0(SB)/8, $0x3fd0000000000000
GLOBL quarter<>(SB), RODATA|NOPTR, $8

// CMUL sets D = B·W for two complex pairs, using T as scratch.
#define CMUL(B, W, D, T) \
	VMOVDDUP  W, D; \
	VPERMILPD $0xf, W, T; \
	VMULPD    D, B, D; \
	VPERMILPD $0x5, B, W; \
	VMULPD    T, W, T; \
	VADDSUBPD T, D, D

// func stagesAVX2(x, tw []complex128)
//
// Stages h = 4, 8, …, n/2: for every block of 2h values and j < h,
// (a[j], b[j]) = (a[j] + b[j]·w[j], a[j] − b[j]·w[j]) with a the block's
// first half, b its second and w = tw[h:2h]. Four butterflies per step
// (h ≥ 4 keeps every step inside one block).
//
// Register use:
//	DI  x              CX  n in bytes
//	SI  tw             R8  h in bytes
//	R10 w = tw + h     R11 block offset
//	AX  a              BX  b
//	DX  j in bytes
TEXT ·stagesAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ tw_base+24(FP), SI
	SHLQ $4, CX
	MOVQ $64, R8

stage:
	CMPQ R8, CX
	JGE  done
	LEAQ (SI)(R8*1), R10
	XORQ R11, R11

block:
	LEAQ (DI)(R11*1), AX
	LEAQ (AX)(R8*1), BX
	XORQ DX, DX

step:
	VMOVUPD (BX)(DX*1), Y0
	VMOVUPD 32(BX)(DX*1), Y1
	VMOVUPD (R10)(DX*1), Y2
	VMOVUPD 32(R10)(DX*1), Y3
	CMUL(Y0, Y2, Y4, Y6)
	CMUL(Y1, Y3, Y5, Y7)
	VMOVUPD (AX)(DX*1), Y0
	VMOVUPD 32(AX)(DX*1), Y1
	VADDPD  Y4, Y0, Y2
	VADDPD  Y5, Y1, Y3
	VSUBPD  Y4, Y0, Y0
	VSUBPD  Y5, Y1, Y1
	VMOVUPD Y2, (AX)(DX*1)
	VMOVUPD Y3, 32(AX)(DX*1)
	VMOVUPD Y0, (BX)(DX*1)
	VMOVUPD Y1, 32(BX)(DX*1)
	ADDQ    $64, DX
	CMPQ    DX, R8
	JLT     step

	LEAQ (R11)(R8*2), R11
	CMPQ R11, CX
	JLT  block
	SHLQ $1, R8
	JMP  stage

done:
	VZEROUPPER
	RET

// func splitAVX2(dst []float64, buf, w []complex128)
//
// Bins k and k+1 for k = 1, 3, …, n/2 − 1, as splitGo computes them: with
// a = buf[k:k+2], b = conj(buf[n−k], buf[n−k−1]), e = a + b and
// o = (a − b)·w[k:k+2], bin k takes (e_r + o_i, e_i − o_r) and bin n−k
// takes (e_r − o_i, e_i + o_r), each squared, summed and scaled by ¼.
// x + o_i is formed as x − (−o_i), which IEEE 754 defines as the same sum.
// Bins k, k+1 are stored before n−k−1, n−k, so at k + 1 = n/2 the second
// formula stands, as in splitGo.
//
// Register use:
//	DI  dst            SI  buf
//	R10 w              CX  n
//	R11 n/2            AX  k
//	BX  k·16           DX  (n−k−1)
TEXT ·splitAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ buf_base+24(FP), SI
	MOVQ buf_len+32(FP), CX
	MOVQ w_base+48(FP), R10
	MOVQ CX, R11
	SHRQ $1, R11
	VMOVUPD      conjMask<>(SB), Y15
	VBROADCASTSD signBit<>(SB), Y14
	VBROADCASTSD quarter<>(SB), Y13
	MOVQ $1, AX

pair:
	CMPQ AX, R11
	JGE  out
	MOVQ AX, BX
	SHLQ $4, BX
	MOVQ CX, DX
	SUBQ AX, DX
	DECQ DX
	MOVQ DX, R12
	SHLQ $4, R12

	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (SI)(R12*1), Y1
	VPERMPD $0x4e, Y1, Y1
	VXORPD  Y15, Y1, Y1
	VADDPD  Y1, Y0, Y2
	VSUBPD  Y1, Y0, Y3
	VMOVUPD (R10)(BX*1), Y4
	CMUL(Y3, Y4, Y5, Y6)
	VPERMILPD $0x5, Y5, Y6
	VADDSUBPD Y6, Y2, Y7
	VXORPD    Y14, Y6, Y6
	VADDSUBPD Y6, Y2, Y8
	VMULPD    Y8, Y8, Y8
	VMULPD    Y7, Y7, Y7
	VHADDPD   Y7, Y8, Y8
	VMULPD    Y13, Y8, Y8
	VPERMPD   $0x78, Y8, Y8
	VMOVUPD   X8, (DI)(AX*8)
	VEXTRACTF128 $1, Y8, X9
	VMOVUPD   X9, (DI)(DX*8)

	ADDQ $2, AX
	JMP  pair

out:
	VZEROUPPER
	RET
