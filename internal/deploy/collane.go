package deploy

// Single-frame column-lane execution.
//
// A SWAR row walk gets its throughput from two properties: every load is
// full (no scalar tail) and every decoded ±1 index is amortised over eight
// values. nOut is rarely a multiple of 8, so a walk at the dense stride
// would run a scalar tail every row. Instead one frame's planes are stored
// at a *padded column stride* (pad8: nOut rounded up to the next multiple
// of 8), so a word carries 8 adjacent output columns and each index decode
// amortises over 8 outputs. Batches get no second layout: InferBatch runs
// every frame through this path, since the AVX2 walk already sweeps 64
// columns per decoded index and interleaving frames measured no faster
// (DESIGN.md, "Batch execution model").
//
// Pad columns hold garbage and that is fine: every stage between
// quantisation and the tree is either position-wise (output column j reads
// only column j of each plane — gathers, requantisation) or spatial (im2col,
// depthwise taps and pooling read only real coordinates si·w+sj < h·w), so a
// pad column can never contaminate a real one. The ~2% of extra arithmetic
// on pad columns buys branch-free full-width loads everywhere.
//
// Every standard-conv row walks its ±1 plane masks — one add per nonzero tap
// per column, the paper's one-add-per-nonzero cost — into an int32 row
// (walk.go: the AVX2 walk, or the Go walk as fallback), then requantises it
// (hidRowQ8/hidRowQ16/outRowQ8 below: the AVX2 requant kernels of
// requant_amd64.s, or the one Go requant loop requantRowGo as fallback). It
// is the only row form: coalesced spans and two-bit-packed weight words,
// once chosen per row by a cost model, measured no faster beyond noise at
// any density from 0.05 to 1.0 (DESIGN.md, "One row walk").
//
// The requantisation helpers here are the second half of the win: the old
// per-element clamp(m.Apply(v)) paid three unpredictable branches per value
// (the zero-multiplier check, the ReLU cut, the clamp). These loops hoist
// the multiplier constants and run the sign, round, ReLU and clamp as pure
// bit arithmetic — bit-identical to Mult.Apply (see requantRowGo) — so the
// requant stages retire no data-dependent branches at all.

import (
	"encoding/binary"
	"math/bits"
)

// pad8 rounds a column count up to the SWAR group width — the single-frame
// column-lane stride.
func pad8(n int) int { return (n + 7) &^ 7 }

// --- fused single-unit depthwise (R = 1) ---
//
// With one hidden unit per channel — the depthwise shape Compile and
// SyntheticEngine emit — a channel's whole depthwise chain is
// out[j] = requant(s · clamp(requant(Σ taps)) + bias): nothing accumulates
// across units, so the tap gather, the hidden requantisation, the signed
// fold and the output requantisation fuse into one pass over 8-column
// groups (dwColFused), with no int32 scratch at all.
//
// A stride-1 same-width depthwise tap reads input position
// (oi+ki−padH)·w + (oj+kj−padW) = L + doff for output position L = oi·w+oj:
// a pure shifted load of the channel plane. For each group of 8 output
// columns the kernel loads each tap's 8 input bytes at the precomputed
// linear offset, applies the tap's lane-validity mask (positions whose
// source falls outside the image, and pad lanes past nOut), and accumulates
// through the usual even/odd biased lanes — so eight output positions cost
// one load per tap instead of eight scalar gathers.
//
// Masked-out lanes are filled with the tap's bias byte (bsel &^ mask): an
// invalid lane then contributes exactly 128 (+1 tap) or 127 (−1 tap), the
// same as reading a zero pixel, so the correction stays the uniform
// 128·n₊ + 127·n₋ and invalid lanes sum to exactly zero. The kernel sums
// every tap of a group in one 16-bit-lane chunk, exact for at most
// chunkPlanes8 = 256 taps, so compileDWCol admits no larger kernel.
//
// Every other depthwise layer — R > 1, stride ≠ 1, an output width unlike
// the input's, a plane under one word (h·w < 8), more than 256 taps — and
// every channel with a saturated multiplier runs the scalar tap walk
// (dwGatherTap, kernels.go).

// compileDWCol builds the fused kernel's tables for this conv at its input
// geometry h×w: per-tap linear offsets and per-group-per-tap lane-validity
// masks. A layer the fused kernel cannot take gets no tables, and dwCol
// stays false.
func (q *QConv) compileDWCol(h, w int) {
	if q.Kind != kindDepthwise || q.R != 1 || q.Stride != 1 || h*w < 8 ||
		int(q.KH)*int(q.KW) > chunkPlanes8 {
		return
	}
	oh, ow := q.outSize(h, w)
	if ow != w {
		return
	}
	kh, kw := int(q.KH), int(q.KW)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := oh * ow
	nG := pad8(nOut) >> 3
	q.dwCol = true
	q.dwColNG = nG
	q.dwColOffs = make([]int32, kh*kw)
	q.dwColMask = make([]uint64, kh*kw*nG)
	for ki := 0; ki < kh; ki++ {
		for kj := 0; kj < kw; kj++ {
			t := ki*kw + kj
			di, dj := ki-padH, kj-padW
			q.dwColOffs[t] = int32(di*w + dj)
			for g := 0; g < nG; g++ {
				var m uint64
				for l := 0; l < 8; l++ {
					L := g*8 + l
					if L >= nOut {
						continue
					}
					si, sj := L/ow+di, L%ow+dj
					if si < 0 || si >= h || sj < 0 || sj >= w {
						continue
					}
					m |= 0xFF << (8 * l)
				}
				// Group-major [g·nTaps + t]: one group's tap masks are
				// contiguous, so dwColFused walks them with unit stride.
				q.dwColMask[g*kh*kw+t] = m
			}
		}
	}
}

// dwTapWord loads one tap's 8 consecutive source bytes at plane offset off.
// Offsets that poke past either end of img take the edge path, which shifts
// the nearest in-bounds word so every lane the validity mask keeps still
// reads its true byte (a masked-in lane's source index is always in
// [0, h·w), see compileDWCol) and out-of-range lanes read zero — they are
// masked to the bias byte regardless. Callers guarantee len(img) ≥ 8.
func dwTapWord(img []byte, off int) uint64 {
	if uint(off) <= uint(len(img)-8) {
		return binary.LittleEndian.Uint64(img[off:])
	}
	return dwTapWordEdge(img, off)
}

// dwTapWordEdge is dwTapWord's out-of-line edge path: a head offset shifts
// the first word up, a tail offset shifts the last word down.
func dwTapWordEdge(img []byte, off int) uint64 {
	if off < 0 {
		if off+8 <= 0 {
			return 0
		}
		return binary.LittleEndian.Uint64(img[:8]) << (uint(-off) * 8)
	}
	last := len(img) - 8
	if off >= len(img) {
		return 0
	}
	return binary.LittleEndian.Uint64(img[last:]) >> (uint(off-last) * 8)
}

// dwColFused runs one R = 1 depthwise channel end to end over the 8-column
// groups [gLo, gHi) (0 and dwColNG for the whole plane): tap gather, hidden
// requantisation by hm clamped to the policy's hidden width [hlo, hhi]
// (int16 mixed, int8 under PolicyInt8), ±1 fold s, and output
// requantisation by om with bias b and floor lo (0 under ReLU, else −128).
// plus/minus are the channel's tap masks, bit t selecting the compiled tap
// tables' entry t; dst holds the channel's nOut real columns. The masks
// decode once per call, into tap lists on the stack that every group
// reuses: a layer has at most chunkPlanes8 taps (compileDWCol), so each
// index fits a byte.
func (q *QConv) dwColFused(dst []int8, img []byte, plus, minus []uint64, hm Mult, hlo, hhi, s int32, om Mult, b, lo int32, gLo, gHi int) {
	var tp, tm [chunkPlanes8]uint8
	np, nm := 0, 0
	for k := range plus {
		for p := plus[k]; p != 0; p &= p - 1 {
			tp[np] = uint8(k<<6 + bits.TrailingZeros64(p))
			np++
		}
		for m := minus[k]; m != 0; m &= m - 1 {
			tm[nm] = uint8(k<<6 + bits.TrailingZeros64(m))
			nm++
		}
	}
	corr := int32(128*np + 127*nm)
	hmant := int64(hm.Mant)
	hshift := hm.Shift & 63
	hhalf := int64(1) << (hshift - 1)
	omant := int64(om.Mant)
	oshift := om.Shift & 63
	ohalf := int64(1) << (oshift - 1)
	offs := q.dwColOffs
	nT := len(offs)
	for g := gLo; g < gHi; g++ {
		base := g << 3
		masks := q.dwColMask[g*nT:][:nT]
		var ev, od uint64
		for _, t := range tp[:np] {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8) & masks[t]
			w8 |= biasI8 &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		for _, t := range tm[:nm] {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8Neg) & masks[t]
			w8 |= biasI8Neg &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		if base+8 <= len(dst) {
			foldLanes(dst[base:base+8], ev, od, corr, hmant, hhalf, hshift, hlo, hhi, s, omant, ohalf, oshift, b, lo)
		} else {
			var tmp [8]int8
			foldLanes(tmp[:], ev, od, corr, hmant, hhalf, hshift, hlo, hhi, s, omant, ohalf, oshift, b, lo)
			copy(dst[base:], tmp[:])
		}
	}
}

// foldLanes is dwColFused's epilogue for one 8-column group: per lane the
// hidden requant clamped to [hlo, hhi], the signed fold and the output
// requant. Deliberately out of line, so the requant chains stay out of the
// tap loop's register allocation, and hand-unrolled: a variant that looped
// over a struct of the constants measured 12–19% slower.
func foldLanes(d []int8, ev, od uint64, corr int32, hmant, hhalf int64, hshift uint8, hlo, hhi, s int32, omant, ohalf int64, oshift uint8, b, lo int32) {
	d = d[:8]
	d[0] = int8(requantOne(s*requantOne(int32(ev&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[1] = int8(requantOne(s*requantOne(int32(od&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[2] = int8(requantOne(s*requantOne(int32((ev>>16)&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[3] = int8(requantOne(s*requantOne(int32((od>>16)&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[4] = int8(requantOne(s*requantOne(int32((ev>>32)&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[5] = int8(requantOne(s*requantOne(int32((od>>32)&0xFFFF)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[6] = int8(requantOne(s*requantOne(int32(ev>>48)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
	d[7] = int8(requantOne(s*requantOne(int32(od>>48)-corr, hmant, hhalf, hshift, 0, hlo, hhi), omant, ohalf, oshift, b, lo, 127))
}

// The requant loops compute Mult.Apply(v) with the constants hoisted and the
// sign-magnitude round replaced by a single-correction identity. Apply is
// round-half-away-from-zero: sign(p)·((|p| + half) >> shift). For shift ≥ 1
// (so 2^shift = 2·half):
//
//	p ≥ 0:  (|p| + half) >> shift           = (p + half) >> shift
//	p < 0: −((−p + half) >> shift)
//	       = ⌈(p − half) / 2^shift⌉
//	       = (p − half + 2·half − 1) >> shift = (p + half − 1) >> shift
//
// and p>>63 is 0 for p ≥ 0, −1 for p < 0, so both cases collapse to
//
//	r = (p + half + (p>>63)) >> shift
//
// — two adds and two shifts past the multiply, no sign restore. The zero
// Mult (Mant 0, Shift 0) is exact for free: p = 0 and Go's wrapped
// half = 1<<255 = 0 give r = 0. The one input the identity cannot represent
// is a saturated multiplier (|m| ≥ 2³¹: Shift 0 with Mant ≠ 0, where Apply's
// wrapped half = 0 makes it the identity map); no requant scale in this
// engine is ≥ 1, so the loops guard it with one cold branch to a scalar
// Apply fallback rather than pay for it per element. Shifts above maxShift
// (62) would let p + half wrap; Validate rejects them. The loops hoist the
// shift as Shift & 63, the same count in that domain, so the compiler can
// drop the guard Go's shift semantics need for counts of 64 and up.
//
// The floor and ceiling cuts are written as two-sided compares — the
// compiler lowers them to CMOVs, which measure ~3× faster per element than
// the equivalent mask-arithmetic clamp chains (the chains are longer in both
// µops and dependency depth). ReLU folds into the floor: lo = 0 when the
// layer cuts, −128 otherwise. The row loop runs two elements per
// iteration: the 64-bit multiplies pipeline past each other and the loop
// overhead halves, worth ~17% per row on the paper shape.
//
// The AVX2 kernels (requant_amd64.s) compute the same identity eight
// columns at a time. The two rows below are their dispatch: whole 8-column
// groups go to the kernel when requantCols admits the row, and the Go loop
// requantRowGo runs the tail and every row the kernels cannot take. The Go
// loop is also the kernels' oracle.

// requantRowI8 is the int8 requant row: dst[j] =
// clampI8(max(m.Apply(acc[j])+b, lo)), lo 0 under relu, else −128. It
// requantises output channels and, with b = 0 and no ReLU, rescales
// PolicyInt8's hidden rows.
func requantRowI8(dst []int8, acc []int32, m Mult, b int32, relu bool) {
	var lo int32 = -128
	if relu {
		lo = 0
	}
	if n := requantCols(len(dst), m); n > 0 {
		requantI8AVX2(dst[:n], acc[:n], m.Mant, m.Shift, b, lo)
		dst, acc = dst[n:], acc[n:]
	}
	requantRowGo(dst, acc, m, b, lo, 127)
}

// requantRowHid16 rescales one hidden row to int16 (the mixed policy's â
// rescale): dst[j] = clampI16(m.Apply(acc[j])).
func requantRowHid16(dst []int16, acc []int32, m Mult) {
	if n := requantCols(len(dst), m); n > 0 {
		requantHid16AVX2(dst[:n], acc[:n], m.Mant, m.Shift)
		dst, acc = dst[n:], acc[n:]
	}
	requantRowGo(dst, acc, m, 0, -32768, 32767)
}

// requantCols is how many leading columns of an n-column requant row the
// AVX2 kernels take: every whole 8-column group, when the host runs AVX2
// and m lies in the kernels' exact domain, Shift 1–maxShift. The zero and
// the saturated Mult (Shift 0) stay on the Go loop.
func requantCols(n int, m Mult) int {
	if !rowWalkAVX2 || m.Shift < 1 || m.Shift > maxShift {
		return 0
	}
	return n &^ 7
}

// requantRowGo is the portable requant loop behind both rows:
// dst[j] = min(max(m.Apply(acc[j])+b, lo), hi). The output row passes hi
// 127; the hidden rescales pass b = 0 and their width's bounds. The pair
// body is written out: through requantOne the compiler spilled the
// constants to the stack and re-derived the shift for every element.
func requantRowGo[T int8 | int16](dst []T, acc []int32, m Mult, b, lo, hi int32) {
	if satMult(m) { // cold scalar path
		for j := range dst {
			dst[j] = T(min(max(m.Apply(acc[j])+b, lo), hi))
		}
		return
	}
	mant := int64(m.Mant)
	shift := m.Shift & 63
	half := int64(1) << (shift - 1)
	acc = acc[:len(dst)]
	j := 0
	for ; j+1 < len(dst); j += 2 {
		p0 := int64(acc[j]) * mant
		p1 := int64(acc[j+1]) * mant
		o0 := int32((p0+half+(p0>>63))>>shift) + b
		o1 := int32((p1+half+(p1>>63))>>shift) + b
		if o0 < lo {
			o0 = lo
		}
		if o0 > hi {
			o0 = hi
		}
		if o1 < lo {
			o1 = lo
		}
		if o1 > hi {
			o1 = hi
		}
		dst[j] = T(o0)
		dst[j+1] = T(o1)
	}
	if j < len(dst) {
		dst[j] = T(requantOne(acc[j], mant, half, shift, b, lo, hi))
	}
}

// requantOne is one element of the identity: round, bias, floor and
// ceiling, inlined into the row loop's tail, the fold and the fused
// epilogue.
func requantOne(v int32, mant, half int64, shift uint8, b, lo, hi int32) int32 {
	p := int64(v) * mant
	o := int32((p+half+(p>>63))>>shift) + b
	if o < lo {
		o = lo
	}
	if o > hi {
		o = hi
	}
	return o
}

// foldRow is the scalar depthwise path's hidden fold:
// acc[j] += s · min(max(m.Apply(hacc[j]), lo), hi), s = ±1 the unit's Wc
// sign and [lo, hi] the policy's hidden width.
func foldRow(acc, hacc []int32, m Mult, s, lo, hi int32) {
	acc = acc[:len(hacc)]
	if satMult(m) {
		for j, v := range hacc {
			acc[j] += s * min(max(m.Apply(v), lo), hi)
		}
		return
	}
	mant := int64(m.Mant)
	shift := m.Shift & 63
	half := int64(1) << (shift - 1)
	for j, v := range hacc {
		acc[j] += s * requantOne(v, mant, half, shift, 0, lo, hi)
	}
}

// satMult reports the one multiplier shape the branch-free requant identity
// cannot represent (|m| ≥ 2³¹, where Apply is the identity map).
func satMult(m Mult) bool { return m.Shift == 0 && m.Mant != 0 }

// hidRowQ8 produces hidden plane i under PolicyInt8: the row walk over the
// im2col planes at stride, then the int8 rescale of the real columns.
func (q *QConv) hidRowQ8(i int, dst []int8, acc []int32, cols []byte, stride int) {
	q.wbSp.walkI8(i, acc, cols, stride)
	requantRowI8(dst, acc, q.hidMul8[i], 0, false)
}

// hidRowQ16 is hidRowQ8 at the mixed policy's int16 hidden width.
func (q *QConv) hidRowQ16(i int, dst []int16, acc []int32, cols []byte, stride int) {
	q.wbSp.walkI8(i, acc, cols, stride)
	requantRowHid16(dst, acc, q.HidMul[i])
}

// outRowQ8 produces output channel c from int8 hidden planes (PolicyInt8),
// the Wc counterpart of hidRowQ8.
func (q *QConv) outRowQ8(c int, dst []int8, acc []int32, hid []byte, stride int) {
	q.wcSp.walkI8(c, acc, hid, stride)
	requantRowI8(dst, acc, q.outMul8[c], q.OutBias[c], q.ReLU)
}

// sumBytesI8 sums a run of int8 values through the biased even/odd lanes —
// eight bytes per step instead of one. Exact for runs of at most
// sumBytesMax bytes (the 16-bit lane headroom after the even/odd fold);
// poolInto takes it only for windows within that bound.
func sumBytesI8(src []int8) int32 {
	b := i8Bytes(src)
	var ev, od uint64
	n := len(b) &^ 7
	for i := 0; i < n; i += 8 {
		w := binary.LittleEndian.Uint64(b[i:i+8]) ^ biasI8
		ev += w & laneMaskE8
		od += (w >> 8) & laneMaskE8
	}
	s := ev + od
	sum := int32(s&0xFFFF) + int32((s>>16)&0xFFFF) + int32((s>>32)&0xFFFF) + int32(s>>48)
	sum -= int32(n) * 128
	for _, v := range src[n:] {
		sum += int32(v)
	}
	return sum
}
