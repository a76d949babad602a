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
// Every standard-conv row walks its ±1 index runs — one add per nonzero tap
// per column, the paper's one-add-per-nonzero cost — into an int32 row
// (walk.go: the AVX2 walk, or the Go walk as fallback), then requantises it
// (hidRowQ8/hidRowQ16/outRowQ8 below). It is the only row form: coalesced
// spans and two-bit-packed weight words, once chosen per row by a cost
// model, measured no faster beyond noise at any density from 0.05 to 1.0
// (DESIGN.md, "One row walk").

import "encoding/binary"

//
// The requantisation helpers here are the second half of the win: the old
// per-element clamp(m.Apply(v)) paid three unpredictable branches per value
// (the zero-multiplier check, the ReLU cut, the clamp). These loops hoist
// the multiplier constants and run the sign, round, ReLU and clamp as pure
// bit arithmetic — bit-identical to Mult.Apply (see requantRowI8) — so the
// requant stages retire no data-dependent branches at all.

// pad8 rounds a column count up to the SWAR group width — the single-frame
// column-lane stride.
func pad8(n int) int { return (n + 7) &^ 7 }

// --- depthwise column-lane walk ---
//
// A stride-1 same-width depthwise tap reads input position
// (oi+ki−padH)·w + (oj+kj−padW) = L + doff for output position L = oi·w+oj:
// a pure shifted load of the channel plane. The walk below exploits that:
// for each group of 8 output columns it loads each tap's 8 input bytes at
// the precomputed linear offset, applies the tap's lane-validity mask
// (positions whose source falls outside the image, and pad lanes past
// nOut), and accumulates through the usual even/odd biased lanes — so eight
// output positions cost one load per tap instead of eight scalar gathers.
//
// Masked-out lanes are filled with the tap's bias byte (bsel &^ mask): an
// invalid lane then contributes exactly 128 (+1 tap) or 127 (−1 tap), the
// same as reading a zero pixel, so the chunk correction stays the uniform
// 128·n₊ + 127·n₋ that spreadLanes subtracts — invalid lanes and pad lanes
// come out exactly zero. A depthwise row has at most KH·KW ≤ 256 taps, so
// one 16-bit-lane chunk always suffices.

// compileDWCol builds the depthwise column-lane tables for this conv at its
// input geometry h×w: per-tap linear offsets and per-tap-per-group validity
// masks. Geometry that breaks the shifted-load identity (stride ≠ 1 or an
// output width different from the input's) leaves dwCol false and the
// scalar tap walk in charge.
func (q *QConv) compileDWCol(h, w int) {
	if q.Kind != kindDepthwise || int(q.Stride) != 1 {
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
	q.dwColMin, q.dwColMax = int32(0), int32(0)
	for ki := 0; ki < kh; ki++ {
		for kj := 0; kj < kw; kj++ {
			t := ki*kw + kj
			di, dj := ki-padH, kj-padW
			doff := int32(di*w + dj)
			q.dwColOffs[t] = doff
			if doff < q.dwColMin {
				q.dwColMin = doff
			}
			if doff > q.dwColMax {
				q.dwColMax = doff
			}
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
				// contiguous, so dwColUnit walks them with unit stride.
				q.dwColMask[g*kh*kw+t] = m
			}
		}
	}
}

// dwColUnit accumulates one depthwise hidden unit's tap sum for groups
// [gLo, gHi) into hacc (assigning — no pre-zeroing needed). plus and minus
// are the unit's tap indices into the compiled offset/mask tables; img is
// the channel plane (loads reach up to (gHi−1)·8 + dwColMax + 8 bytes, the
// caller clips gHi to what its buffer can serve).
func (q *QConv) dwColUnit(hacc []int32, img []byte, plus, minus []int32) (gLo, gHi int) {
	nG := q.dwColNG
	gLo = 0
	if q.dwColMin < 0 {
		gLo = int(7-q.dwColMin) >> 3
	}
	gHi = nG
	if max := (len(img) - int(q.dwColMax) - 8) >> 3; max+1 < gHi {
		gHi = max + 1
	}
	if gHi < gLo {
		gHi = gLo
	}
	corr := int32(128*len(plus) + 127*len(minus))
	offs := q.dwColOffs
	nT := len(offs)
	for g := gLo; g < gHi; g++ {
		base := g << 3
		masks := q.dwColMask[g*nT:][:nT]
		var ev, od uint64
		for _, t := range plus {
			off := base + int(offs[t])
			src := img[off : off+8]
			mask := masks[t]
			w8 := (binary.LittleEndian.Uint64(src) ^ biasI8) & mask
			w8 |= biasI8 &^ mask
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		for _, t := range minus {
			off := base + int(offs[t])
			src := img[off : off+8]
			mask := masks[t]
			w8 := (binary.LittleEndian.Uint64(src) ^ biasI8Neg) & mask
			w8 |= biasI8Neg &^ mask
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		spreadLanes(hacc[base:], ev, od, corr, true)
	}
	return gLo, gHi
}

// dwColScalarPos computes one output position's depthwise tap sum directly —
// the scalar edge path for the head and tail groups dwColUnit cannot load
// (a head tap offset would index before the plane, a tail load past the
// caller's buffer).
func dwColScalarPos(img []int8, plus, minus []int32, h, w, ow, kw, padH, padW, L int) int32 {
	oi, oj := L/ow, L%ow
	var s int32
	for _, t := range plus {
		si, sj := oi+int(t)/kw-padH, oj+int(t)%kw-padW
		if si >= 0 && si < h && sj >= 0 && sj < w {
			s += int32(img[si*w+sj])
		}
	}
	for _, t := range minus {
		si, sj := oi+int(t)/kw-padH, oj+int(t)%kw-padW
		if si >= 0 && si < h && sj >= 0 && sj < w {
			s -= int32(img[si*w+sj])
		}
	}
	return s
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
// Apply fallback rather than pay for it per element.
//
// The ReLU and saturation cuts are written as two-sided compares — the
// compiler lowers them to CMOVs, which measure ~3× faster per element than
// the equivalent mask-arithmetic clamp chains (the chains are longer in both
// µops and dependency depth). ReLU folds into the clamp floor: lo = 0 when
// the layer cuts, −128 otherwise. Each loop runs two elements per
// iteration: the 64-bit multiplies pipeline past each other and the loop
// overhead halves, worth ~17% per row on the paper shape.

// requantRowI8 is requantChannel/requantChannel8 with the constants hoisted
// and the round, ReLU and clamp free of unpredictable branches:
// dst[j] = clampI8(relu(m.Apply(acc[j])+b)).
func requantRowI8(dst []int8, acc []int32, m Mult, b int32, relu bool) {
	mant := int64(m.Mant)
	shift := m.Shift
	half := int64(1) << (shift - 1)
	var lo int32 = -128
	if relu {
		lo = 0
	}
	if shift == 0 && mant != 0 { // saturated multiplier: cold scalar path
		for j := range dst {
			o := m.Apply(acc[j]) + b
			if o < lo {
				o = lo
			}
			dst[j] = clampI8(o)
		}
		return
	}
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
		if o0 > 127 {
			o0 = 127
		}
		if o1 < lo {
			o1 = lo
		}
		if o1 > 127 {
			o1 = 127
		}
		dst[j] = int8(o0)
		dst[j+1] = int8(o1)
	}
	for ; j < len(dst); j++ {
		prod := int64(acc[j]) * mant
		o := int32((prod+half+(prod>>63))>>shift) + b
		if o < lo {
			o = lo
		}
		if o > 127 {
			o = 127
		}
		dst[j] = int8(o)
	}
}

// requantRowHid8 rescales one hidden row to int8 (PolicyInt8's â rescale):
// dst[j] = clampI8(m.Apply(acc[j])).
func requantRowHid8(dst []int8, acc []int32, m Mult) {
	mant := int64(m.Mant)
	shift := m.Shift
	half := int64(1) << (shift - 1)
	if shift == 0 && mant != 0 {
		for j := range dst {
			dst[j] = clampI8(m.Apply(acc[j]))
		}
		return
	}
	acc = acc[:len(dst)]
	j := 0
	for ; j+1 < len(dst); j += 2 {
		p0 := int64(acc[j]) * mant
		p1 := int64(acc[j+1]) * mant
		o0 := int32((p0 + half + (p0 >> 63)) >> shift)
		o1 := int32((p1 + half + (p1 >> 63)) >> shift)
		if o0 < -128 {
			o0 = -128
		}
		if o0 > 127 {
			o0 = 127
		}
		if o1 < -128 {
			o1 = -128
		}
		if o1 > 127 {
			o1 = 127
		}
		dst[j] = int8(o0)
		dst[j+1] = int8(o1)
	}
	for ; j < len(dst); j++ {
		prod := int64(acc[j]) * mant
		o := int32((prod + half + (prod >> 63)) >> shift)
		if o < -128 {
			o = -128
		}
		if o > 127 {
			o = 127
		}
		dst[j] = int8(o)
	}
}

// requantRowHid16 rescales one hidden row to int16 (the mixed policy's â
// rescale): dst[j] = clampI16(m.Apply(acc[j])).
func requantRowHid16(dst []int16, acc []int32, m Mult) {
	mant := int64(m.Mant)
	shift := m.Shift
	half := int64(1) << (shift - 1)
	if shift == 0 && mant != 0 {
		for j := range dst {
			dst[j] = clampI16(m.Apply(acc[j]))
		}
		return
	}
	acc = acc[:len(dst)]
	j := 0
	for ; j+1 < len(dst); j += 2 {
		p0 := int64(acc[j]) * mant
		p1 := int64(acc[j+1]) * mant
		o0 := int32((p0 + half + (p0 >> 63)) >> shift)
		o1 := int32((p1 + half + (p1 >> 63)) >> shift)
		if o0 < -32768 {
			o0 = -32768
		}
		if o0 > 32767 {
			o0 = 32767
		}
		if o1 < -32768 {
			o1 = -32768
		}
		if o1 > 32767 {
			o1 = 32767
		}
		dst[j] = int16(o0)
		dst[j+1] = int16(o1)
	}
	for ; j < len(dst); j++ {
		prod := int64(acc[j]) * mant
		o := int32((prod + half + (prod >> 63)) >> shift)
		if o < -32768 {
			o = -32768
		}
		if o > 32767 {
			o = 32767
		}
		dst[j] = int16(o)
	}
}

// foldRowI8 is the depthwise hidden fold under PolicyInt8:
// acc[j] += s · clampI8(m.Apply(hacc[j])) with s = ±1.
func foldRowI8(acc, hacc []int32, m Mult, s int32) {
	mant := int64(m.Mant)
	shift := m.Shift
	half := int64(1) << (shift - 1)
	if shift == 0 && mant != 0 {
		for j, v := range hacc {
			acc[j] += s * int32(clampI8(m.Apply(v)))
		}
		return
	}
	acc = acc[:len(hacc)]
	j := 0
	for ; j+1 < len(hacc); j += 2 {
		p0 := int64(hacc[j]) * mant
		p1 := int64(hacc[j+1]) * mant
		o0 := int32((p0 + half + (p0 >> 63)) >> shift)
		o1 := int32((p1 + half + (p1 >> 63)) >> shift)
		if o0 < -128 {
			o0 = -128
		}
		if o0 > 127 {
			o0 = 127
		}
		if o1 < -128 {
			o1 = -128
		}
		if o1 > 127 {
			o1 = 127
		}
		acc[j] += s * o0
		acc[j+1] += s * o1
	}
	for ; j < len(hacc); j++ {
		prod := int64(hacc[j]) * mant
		o := int32((prod + half + (prod >> 63)) >> shift)
		if o < -128 {
			o = -128
		}
		if o > 127 {
			o = 127
		}
		acc[j] += s * o
	}
}

// foldRowI16 is foldRowI8 at the mixed policy's int16 hidden width.
func foldRowI16(acc, hacc []int32, m Mult, s int32) {
	mant := int64(m.Mant)
	shift := m.Shift
	half := int64(1) << (shift - 1)
	if shift == 0 && mant != 0 {
		for j, v := range hacc {
			acc[j] += s * int32(clampI16(m.Apply(v)))
		}
		return
	}
	acc = acc[:len(hacc)]
	j := 0
	for ; j+1 < len(hacc); j += 2 {
		p0 := int64(hacc[j]) * mant
		p1 := int64(hacc[j+1]) * mant
		o0 := int32((p0 + half + (p0 >> 63)) >> shift)
		o1 := int32((p1 + half + (p1 >> 63)) >> shift)
		if o0 < -32768 {
			o0 = -32768
		}
		if o0 > 32767 {
			o0 = 32767
		}
		if o1 < -32768 {
			o1 = -32768
		}
		if o1 > 32767 {
			o1 = 32767
		}
		acc[j] += s * o0
		acc[j+1] += s * o1
	}
	for ; j < len(hacc); j++ {
		prod := int64(hacc[j]) * mant
		o := int32((prod + half + (prod >> 63)) >> shift)
		if o < -32768 {
			o = -32768
		}
		if o > 32767 {
			o = 32767
		}
		acc[j] += s * o
	}
}

// q8 requantises one lane sum — the identity round, bias, floor and ceiling
// of requantRowI8 as an inlinable single-value step for the fused depthwise
// kernels.
func q8(v int32, mant, half int64, shift uint8, b, lo int32) int8 {
	prod := int64(v) * mant
	o := int32((prod+half+(prod>>63))>>shift) + b
	if o < lo {
		o = lo
	}
	if o > 127 {
		o = 127
	}
	return int8(o)
}

// q16 is q8 at the mixed policy's int16 hidden width.
func q16(v int32, mant, half int64, shift uint8) int16 {
	prod := int64(v) * mant
	o := int32((prod + half + (prod >> 63)) >> shift)
	if o < -32768 {
		o = -32768
	}
	if o > 32767 {
		o = 32767
	}
	return int16(o)
}

// hidRowQ8 produces hidden plane i under PolicyInt8: the row walk over the
// im2col planes at stride, then the int8 rescale of the real columns.
func (q *QConv) hidRowQ8(i int, dst []int8, acc []int32, cols []byte, stride int) {
	q.wbSp.walkI8(i, acc, cols, stride)
	requantRowHid8(dst, acc, q.hidMul8[i])
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

// satMult reports the one multiplier shape the branch-free requant identity
// cannot represent (|m| ≥ 2³¹, where Apply is the identity map).
func satMult(m Mult) bool { return m.Shift == 0 && m.Mant != 0 }

// --- fused single-unit depthwise (R = 1) ---
//
// With one hidden unit per channel the whole depthwise chain for a channel is
// out[j] = requant(s · clamp(requant(Σ taps)) + bias): no accumulation across
// units, so the tap gather, the hidden requantisation, the signed fold and
// the output requantisation all fuse into one pass over the groups — the
// hacc/acc int32 round-trips of the general path disappear, and the plane
// edges are served by shifted SWAR loads instead of the scalar position walk.

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

// dwColQ8 runs one depthwise channel end to end under PolicyInt8: tap
// gather, hidden requantisation (hm), ±1 fold (s) and output requantisation
// (om, bias b, optional ReLU) in a single pass. plus/minus index the
// compiled tap tables; dst holds the channel's nOut real columns.
func (q *QConv) dwColQ8(dst []int8, img []byte, plus, minus []int32, hm Mult, s int32, om Mult, b int32, relu bool) {
	corr := int32(128*len(plus) + 127*len(minus))
	hmant := int64(hm.Mant)
	hshift := hm.Shift
	hhalf := int64(1) << (hshift - 1)
	omant := int64(om.Mant)
	oshift := om.Shift
	ohalf := int64(1) << (oshift - 1)
	var lo int32 = -128
	if relu {
		lo = 0
	}
	offs := q.dwColOffs
	nT := len(offs)
	nG := q.dwColNG
	for g := 0; g < nG; g++ {
		base := g << 3
		masks := q.dwColMask[g*nT:][:nT]
		var ev, od uint64
		for _, t := range plus {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8) & masks[t]
			w8 |= biasI8 &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		for _, t := range minus {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8Neg) & masks[t]
			w8 |= biasI8Neg &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		if base+8 <= len(dst) {
			foldQ8Lanes(dst[base:base+8], ev, od, corr, hmant, hhalf, hshift, s, omant, ohalf, oshift, b, lo)
		} else {
			var tmp [8]int8
			foldQ8Lanes(tmp[:], ev, od, corr, hmant, hhalf, hshift, s, omant, ohalf, oshift, b, lo)
			copy(dst[base:], tmp[:])
		}
	}
}

// dwColQ16 is dwColQ8 under the mixed policy: the hidden value clamps at
// int16 before the fold, the output requantisation is unchanged.
func (q *QConv) dwColQ16(dst []int8, img []byte, plus, minus []int32, hm Mult, s int32, om Mult, b int32, relu bool) {
	corr := int32(128*len(plus) + 127*len(minus))
	hmant := int64(hm.Mant)
	hshift := hm.Shift
	hhalf := int64(1) << (hshift - 1)
	omant := int64(om.Mant)
	oshift := om.Shift
	ohalf := int64(1) << (oshift - 1)
	var lo int32 = -128
	if relu {
		lo = 0
	}
	offs := q.dwColOffs
	nT := len(offs)
	nG := q.dwColNG
	for g := 0; g < nG; g++ {
		base := g << 3
		masks := q.dwColMask[g*nT:][:nT]
		var ev, od uint64
		for _, t := range plus {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8) & masks[t]
			w8 |= biasI8 &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		for _, t := range minus {
			w8 := (dwTapWord(img, base+int(offs[t])) ^ biasI8Neg) & masks[t]
			w8 |= biasI8Neg &^ masks[t]
			ev += w8 & laneMaskE8
			od += (w8 >> 8) & laneMaskE8
		}
		if base+8 <= len(dst) {
			foldQ16Lanes(dst[base:base+8], ev, od, corr, hmant, hhalf, hshift, s, omant, ohalf, oshift, b, lo)
		} else {
			var tmp [8]int8
			foldQ16Lanes(tmp[:], ev, od, corr, hmant, hhalf, hshift, s, omant, ohalf, oshift, b, lo)
			copy(dst[base:], tmp[:])
		}
	}
}

// foldQ8Lanes is the fused depthwise epilogue for one 8-column group under
// PolicyInt8: hidden requant (q8 at ±int8), signed fold, output requant.
// Deliberately out of line: keeping the requant chains out of the tap loop
// preserves its register allocation.
func foldQ8Lanes(d []int8, ev, od uint64, corr int32, hmant, hhalf int64, hshift uint8, s int32, omant, ohalf int64, oshift uint8, b, lo int32) {
	d = d[:8]
	d[0] = q8(s*int32(q8(int32(ev&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[1] = q8(s*int32(q8(int32(od&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[2] = q8(s*int32(q8(int32((ev>>16)&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[3] = q8(s*int32(q8(int32((od>>16)&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[4] = q8(s*int32(q8(int32((ev>>32)&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[5] = q8(s*int32(q8(int32((od>>32)&0xFFFF)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[6] = q8(s*int32(q8(int32(ev>>48)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
	d[7] = q8(s*int32(q8(int32(od>>48)-corr, hmant, hhalf, hshift, 0, -128)), omant, ohalf, oshift, b, lo)
}

// foldQ16Lanes is foldQ8Lanes with the hidden clamp at int16 (mixed policy).
func foldQ16Lanes(d []int8, ev, od uint64, corr int32, hmant, hhalf int64, hshift uint8, s int32, omant, ohalf int64, oshift uint8, b, lo int32) {
	d = d[:8]
	d[0] = q8(s*int32(q16(int32(ev&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[1] = q8(s*int32(q16(int32(od&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[2] = q8(s*int32(q16(int32((ev>>16)&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[3] = q8(s*int32(q16(int32((od>>16)&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[4] = q8(s*int32(q16(int32((ev>>32)&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[5] = q8(s*int32(q16(int32((od>>32)&0xFFFF)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[6] = q8(s*int32(q16(int32(ev>>48)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
	d[7] = q8(s*int32(q16(int32(od>>48)-corr, hmant, hhalf, hshift)), omant, ohalf, oshift, b, lo)
}

// sumBytesI8 sums a run of int8 values through the biased even/odd lanes —
// eight bytes per step instead of one. Safe for runs up to 1024 bytes (the
// 16-bit lane headroom after the even/odd fold); pool windows are far below
// that.
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
