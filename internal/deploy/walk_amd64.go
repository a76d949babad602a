//go:build amd64 && !purego

package deploy

import "repro/internal/cpuid"

// Declarations for the AVX2 row walk in walk_amd64.s. Both kernels compute
// acc[j] = Σ₊ planes[p·stride+j] − Σ₋ planes[m·stride+j] for j in
// [0, len(acc)), len(acc) a multiple of 8, over the planes one row's masks
// select (its +1 words, then as many −1 words), and trust their caller to
// have proved every read in bounds (sparseRows.proveWalk).

//go:noescape
func walkI8AVX2(acc []int32, planes []byte, masks []uint64, stride int)

//go:noescape
func walkI16AVX2(acc []int32, planes []int16, masks []uint64, stride int)

// Declarations for the AVX2 requant rows in requant_amd64.s: the
// requantRowGo loop of collane.go, at int8 and at int16 with no bias, over
// the first len(dst) &^ 7 columns, for a multiplier with Shift in [1, 62]
// (requantCols). They read acc[:len(dst)&^7] and write nothing past it in
// dst.

//go:noescape
func requantI8AVX2(dst []int8, acc []int32, mant int32, shift uint8, b, lo int32)

//go:noescape
func requantHid16AVX2(dst []int16, acc []int32, mant int32, shift uint8)

// rowWalkAVX2 reports whether this CPU and OS run AVX2 (cpuid.AVX2).
var rowWalkAVX2 = cpuid.AVX2
