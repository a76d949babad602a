package deploy

// Row walk dispatch.
//
// Every standard-conv row — single-frame Wb and Wc (which every InferBatch
// frame runs too) and hop bands — runs one of two walks over its ±1 plane
// masks. On amd64 with AVX2 (checked once at init) a row whose column
// count is a multiple of 8 takes the assembly walk in walk_amd64.s; every
// other row, every row on other architectures and every row under
// -tags purego takes the portable Go walk (gatherPlanesI8W, gather). Both
// produce the exact int32 sums mod 2³², so they agree bit for bit, and the
// property tests pin both against oracles that read the dense rows
// (DESIGN.md, "One row walk").

import "fmt"

// RowWalk reports which kernels standard-conv rows take in this build on
// this CPU: "avx2" for the amd64 assembly walk and requant rows, "go" for
// the portable walk and requant loops.
func RowWalk() string {
	if rowWalkAVX2 {
		return "avx2"
	}
	return "go"
}

// walkI8 sets acc[j] = Σ₊ src[p·stride+j] − Σ₋ src[m·stride+j] for j in
// [0, stride) over row r's plane masks, src holding int8 planes at plane
// stride stride.
func (s *sparseRows) walkI8(r int, acc []int32, src []byte, stride int) {
	if rowWalkAVX2 && stride&7 == 0 {
		s.proveWalk(len(src), stride)
		walkI8AVX2(acc[:stride], src, s.rowMasks(r), stride)
		return
	}
	plus, minus := s.row(r)
	gatherPlanesI8W(acc, src, plus, minus, stride)
}

// walkI16 is walkI8 over int16 planes (the mixed policy's hidden layer).
func (s *sparseRows) walkI16(r int, acc []int32, src []int16, stride int) {
	if rowWalkAVX2 && stride&7 == 0 {
		s.proveWalk(len(src), stride)
		walkI16AVX2(acc[:stride], src, s.rowMasks(r), stride)
		return
	}
	plus, minus := s.row(r)
	gather(acc, src, plus, minus, stride)
}

// proveWalk is the assembly walk's bounds proof, O(1) per call: compileRows
// sets no mask bit at or past s.planes, so the furthest element a walk of
// stride columns reads is s.planes·stride − 1. A shorter source is a caller
// bug, and the walk panics rather than read past it.
func (s *sparseRows) proveWalk(n, stride int) {
	if s.planes*stride > n {
		panicShortPlanes(s.planes, stride, n)
	}
}

// panicShortPlanes is proveWalk's failure, kept out of line so the proof
// itself inlines.
//
//go:noinline
func panicShortPlanes(planes, stride, n int) {
	panic(fmt.Sprintf("deploy: row walk over %d planes at stride %d reads %d elements, source holds %d",
		planes, stride, planes*stride, n))
}
