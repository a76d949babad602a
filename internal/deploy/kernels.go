package deploy

// Precompiled sparse ternary kernels.
//
// TWN quantisation drives most ternary entries to zero, so iterating a dense
// ternary row wastes the majority of its loop trips on `t == 0` checks. At
// kernel-compilation time (ReadEngine / Compile / first Infer) every ternary
// matrix row is converted into two plane bitmasks — bit p of the +1 mask
// set where column p holds +1, of the −1 mask where it holds −1 — so the
// inner loops become gather-add / gather-sub over only the nonzeros: each
// walk decodes a mask by trailing-zero count and clears the lowest set bit,
// one add per nonzero ternary entry per output position, the paper's cost
// model for a strassenified matmul. A mask costs 2 bits per weight plus
// row padding to a whole 64-bit word, the same information as the packed
// .thnt form. Those masks are the only compiled form of a ternary matrix —
// conv rows walk them through the AVX2 walk (walk_amd64.s) or the SWAR
// kernels in bitplane.go, the depthwise taps and the tree's dense maps walk
// them scalar. Integer addition is exact and commutative, so the
// sparse kernels are bit-identical to the naive dense reference retained in
// engine.go (NaiveInt).

import "math/bits"

// sparseRows is a compiled ternary matrix: per row, words uint64s of +1
// plane mask followed by words uint64s of −1 plane mask, bit p of word k
// standing for column 64k+p. Bits at or past planes are zero, so every
// decoded index is below planes — the bound the assembly row walk's O(1)
// bounds proof rests on (walk.go). nnz is the matrix's nonzero count (the
// telemetry's visit counters read it). compileRows builds the masks once,
// under Engine.compileOnce, and nothing writes them afterwards: any number
// of goroutines walk one matrix at once.
type sparseRows struct {
	mask   []uint64
	words  int
	planes int
	nnz    int
}

// compileRows converts a dense ternary matrix [rows, cols] into its plane
// masks.
func compileRows(w []int8, rows, cols int) sparseRows {
	words := (cols + 63) >> 6
	s := sparseRows{mask: make([]uint64, 2*rows*words), words: words, planes: cols}
	for r := 0; r < rows; r++ {
		plus, minus := s.row(r)
		for c, v := range w[r*cols : (r+1)*cols] {
			switch {
			case v > 0:
				plus[c>>6] |= 1 << (c & 63)
			case v < 0:
				minus[c>>6] |= 1 << (c & 63)
			default:
				continue
			}
			s.nnz++
		}
	}
	return s
}

// rowMasks returns row r's mask words: its +1 words, then its −1 words.
func (s *sparseRows) rowMasks(r int) []uint64 {
	return s.mask[2*r*s.words : (2*r+2)*s.words]
}

// row returns the +1 and −1 plane masks of row r.
func (s *sparseRows) row(r int) (plus, minus []uint64) {
	m := s.rowMasks(r)
	return m[:s.words], m[s.words:]
}

// compileKernels builds the sparse row forms from a transient unpacked copy
// of the ternary matrices and sets the requantisers of policy pol, deriving
// them only for PolicyInt8. Run once per engine under Engine.ensureCompiled.
func (q *QConv) compileKernels(pol Policy) {
	wb, wc := q.ternaries()
	q.pol, q.hidReq, q.outReq = pol, q.HidMul, q.OutMul
	if pol == PolicyInt8 {
		q.hidReq, q.outReq = act8Mults(q.HidMul, hidToI8), act8Mults(q.OutMul, i8ToHid)
	}
	if q.Kind == kindDepthwise {
		// Wc is one sign per hidden unit; only Wb needs row compilation.
		q.wbSp = compileRows(wb, int(q.Cin)*int(q.R), int(q.KH*q.KW))
		q.wcSign = wc
		return
	}
	q.wbSp = compileRows(wb, int(q.R), int(q.Cin*q.KH*q.KW))
	q.wcSp = compileRows(wc, int(q.Cout), int(q.R))
}

func (q *QDense) compileKernels() {
	wb, wc := q.ternaries()
	q.wbSp = compileRows(wb, int(q.R), int(q.In))
	q.wcSp = compileRows(wc, int(q.Out), int(q.R))
}

func (t *QTree) compileKernels() {
	t.Z.compileKernels()
	for k := range t.W {
		t.W[k].compileKernels()
		t.V[k].compileKernels()
	}
}

// colRuns computes the output-coordinate range [lo,hi) for one kernel tap k
// along a dimension of source size n: the positions o for which
// o·stride + k − pad lands inside [0, n). Everything outside the run reads
// padding and stays zero.
func colRuns(n, k, stride, pad, outN int) (lo, hi int) {
	// ceil((pad−k)/stride): the +stride−1 trick is exact for positive
	// numerators; a too-small result for negative ones is clamped to 0.
	lo = (pad - k + stride - 1) / stride
	if lo < 0 {
		lo = 0
	}
	top := n - 1 - k + pad
	if top < 0 {
		return 0, 0
	}
	hi = top/stride + 1
	if hi > outN {
		hi = outN
	}
	return lo, hi
}

// gather accumulates the ternary combination of the int8 or int16 planes
// selected by the plus/minus plane masks into acc. Planes are folded up to
// eight at a time — the partial sum of eight int8 or int16 values cannot
// wrap an int32, and int32 addition is associative mod 2³², so the result
// stays bit-identical to one-at-a-time accumulation while acc is loaded and
// stored an eighth as often. All slices are resliced to exactly nOut so the
// inner loops bounds-check once, not per element.
//
// It is the portable Go walk for int16 rows (walk.go runs it wherever the
// AVX2 walk does not); int8 rows take the word-packed gatherPlanesI8W
// (bitplane.go) instead.
func gather[T int8 | int16](acc []int32, planes []T, plus, minus []uint64, nOut int) {
	acc = acc[:nOut]
	clear(acc)
	addPlanes(acc, planes, plus, nOut, 1)
	addPlanes(acc, planes, minus, nOut, -1)
}

// addPlanes adds (sign +1) or subtracts (sign −1) the planes mask selects
// into acc: each decoded plane's offset is queued, and every eighth one
// flushes the queue in one pass over acc.
func addPlanes[T int8 | int16](acc []int32, planes []T, mask []uint64, nOut int, sign int32) {
	var q [8]int
	n := 0
	for k, m := range mask {
		for m != 0 {
			q[n] = (k<<6 + bits.TrailingZeros64(m)) * nOut
			m &= m - 1
			if n++; n == len(q) {
				addQueued(acc, planes, q[:], nOut, sign)
				n = 0
			}
		}
	}
	addQueued(acc, planes, q[:n], nOut, sign)
}

// addQueued adds or subtracts the planes at offsets q (at most eight) into
// acc: eight in one pass, else four in one pass and the rest one by one.
func addQueued[T int8 | int16](acc []int32, planes []T, q []int, nOut int, sign int32) {
	if len(q) == 8 {
		s1, s2 := planes[q[0]:][:nOut], planes[q[1]:][:nOut]
		s3, s4 := planes[q[2]:][:nOut], planes[q[3]:][:nOut]
		s5, s6 := planes[q[4]:][:nOut], planes[q[5]:][:nOut]
		s7, s8 := planes[q[6]:][:nOut], planes[q[7]:][:nOut]
		if sign > 0 {
			for j := range acc {
				acc[j] += int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j]) +
					int32(s5[j]) + int32(s6[j]) + int32(s7[j]) + int32(s8[j])
			}
		} else {
			for j := range acc {
				acc[j] -= int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j]) +
					int32(s5[j]) + int32(s6[j]) + int32(s7[j]) + int32(s8[j])
			}
		}
		return
	}
	if len(q) >= 4 {
		s1, s2 := planes[q[0]:][:nOut], planes[q[1]:][:nOut]
		s3, s4 := planes[q[2]:][:nOut], planes[q[3]:][:nOut]
		if sign > 0 {
			for j := range acc {
				acc[j] += int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j])
			}
		} else {
			for j := range acc {
				acc[j] -= int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j])
			}
		}
		q = q[4:]
	}
	for _, off := range q {
		src := planes[off:][:nOut]
		if sign > 0 {
			for j, v := range src {
				acc[j] += int32(v)
			}
		} else {
			for j, v := range src {
				acc[j] -= int32(v)
			}
		}
	}
}

// stdHiddenRows computes every hidden row: each row gathers its +/− im2col
// planes (at plane stride ps) and rescales them to int16 through the
// per-hidden-unit fixed-point multiplier (hidRowQ16), reusing the one
// pad8(nOut) accumulator row acc as scratch. Hidden planes are indexed by
// row at the padded stride.
func (q *QConv) stdHiddenRows(cols []int8, hidden []int16, acc []int32, nOut, ps int) {
	colsB := i8Bytes(cols)
	pa := pad8(nOut)
	for i := 0; i < int(q.R); i++ {
		q.hidRowQ16(i, hidden[i*pa:][:nOut], acc, colsB, ps)
	}
}

// stdHiddenRows8 is stdHiddenRows under PolicyInt8: the hidden planes are
// stored int8 through the derived int8 requantisers.
func (q *QConv) stdHiddenRows8(cols []int8, hidden8 []int8, acc []int32, nOut, ps int) {
	colsB := i8Bytes(cols)
	pa := pad8(nOut)
	for i := 0; i < int(q.R); i++ {
		q.hidRowQ8(i, hidden8[i*pa:][:nOut], acc, colsB, ps)
	}
}

// stdOutRows computes every output channel from the int16 hidden planes
// (mixed policy) through the int16 row walk at the padded hidden stride, so
// the pad columns ride along as inert garbage.
func (q *QConv) stdOutRows(hidden []int16, acc []int32, out []int8, nOut, os int) {
	pa := pad8(nOut)
	for c := 0; c < int(q.Cout); c++ {
		q.wcSp.walkI16(c, acc, hidden, pa)
		requantRowI8(out[c*os:][:nOut], acc, q.outReq[c], q.OutBias[c], q.ReLU)
	}
}

// stdOutRows8 computes every output channel from int8 hidden planes
// (PolicyInt8) through outRowQ8; only the real nOut columns are written to
// out.
func (q *QConv) stdOutRows8(hidden8 []int8, acc []int32, out []int8, nOut, os int) {
	hidB := i8Bytes(hidden8)
	pa := pad8(nOut)
	for c := 0; c < int(q.Cout); c++ {
		q.outRowQ8(c, out[c*os:][:nOut], acc, hidB, pa)
	}
}

// dwSparse is the depthwise kernel. It skips im2col entirely — each Wb
// nonzero is one sliding-window tap gathered straight off the input image —
// and skips hidden units whose Wc entry is zero before their gathers run
// (the naive path computes them and then discards the result). Channels are
// processed serially: per-channel work is tiny and the standard-conv stages
// dominate.
//
// A layer the fused R = 1 kernel takes (dwFused) runs each channel through
// dwColFused (collane.go); every other layer, and every channel with a
// saturated multiplier, runs the scalar tap walk (dwGatherTap) with the
// hidden fold (foldRow) and an output requant row.
//
// segs lists the output-row segments to write: a frame pass passes the
// whole plane, a hop its bands. A fused channel runs only the 8-column
// groups its segments touch; a group that overlaps rows outside them
// rewrites those rows with the values a whole-plane pass would give, which
// are the values they hold. Every other channel recomputes its whole plane.
func (q *QConv) dwSparse(a *arena, x, out []int8, h, w, outH, outW, inStride, outStride int, segs [][2]int) {
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	r := int(q.R)
	acc := a.acc[:nOut]
	hacc := a.acc[pad8(nOut):][:nOut]
	hm, om := q.hidReq, q.outReq
	hlo, hhi := hidBounds(q.pol)
	var lo int32 = -128
	if q.ReLU {
		lo = 0
	}
	fused := q.dwFused(outStride)
	for ch := 0; ch < int(q.Cin); ch++ {
		img := x[ch*inStride:]
		dst := out[ch*outStride:][:nOut]
		b := q.OutBias[ch]
		if fused && q.wcSign[ch] == 0 {
			// The unit is pruned: the channel requantises a zero
			// accumulator, the constant max(b, lo) for any multiplier.
			for _, sg := range segs {
				fillI8(dst[sg[0]*outW:sg[1]*outW], clampI8(max(b, lo)))
			}
			continue
		}
		if fused && !satMult(hm[ch]) && !satMult(om[ch]) {
			plus, minus := q.wbSp.row(ch)
			for _, sg := range segs {
				q.dwColFused(dst, i8Bytes(img), plus, minus, hm[ch], hlo, hhi, int32(q.wcSign[ch]), om[ch], b, lo,
					sg[0]*outW>>3, pad8(sg[1]*outW)>>3)
			}
			continue
		}
		img = img[:h*w]
		clear(acc)
		for u := 0; u < r; u++ {
			hu := ch*r + u
			if q.wcSign[hu] == 0 {
				continue
			}
			plus, minus := q.wbSp.row(hu)
			clear(hacc)
			for k, m := range plus {
				for ; m != 0; m &= m - 1 {
					p := k<<6 + bits.TrailingZeros64(m)
					dwGatherTap(hacc, img, p/kw, p%kw, h, w, outH, outW, stride, padH, padW, 1)
				}
			}
			for k, m := range minus {
				for ; m != 0; m &= m - 1 {
					p := k<<6 + bits.TrailingZeros64(m)
					dwGatherTap(hacc, img, p/kw, p%kw, h, w, outH, outW, stride, padH, padW, -1)
				}
			}
			foldRow(acc, hacc, hm[hu], int32(q.wcSign[hu]), hlo, hhi)
		}
		requantRowI8(dst, acc, om[ch], b, q.ReLU)
	}
}

// fillI8 sets every element of dst to v, doubling the filled prefix with
// each copy.
func fillI8(dst []int8, v int8) {
	if len(dst) == 0 {
		return
	}
	dst[0] = v
	for i := 1; i < len(dst); i *= 2 {
		copy(dst[i:], dst[:i])
	}
}

// dwFused reports whether dwSparse runs this layer through the fused R = 1
// kernel at output channel stride outStride: the layer compiled its column
// tables (compileDWCol) and the caller stores channels at their padded
// stride.
func (q *QConv) dwFused(outStride int) bool {
	return q.dwCol && outStride == q.dwColNG<<3
}

// dwGatherTap adds (sign +1) or subtracts (sign −1) one depthwise tap's
// sliding window over the output plane into hacc, reading the input plane
// img directly and skipping padding positions (they contribute zero,
// exactly as a zero-filled im2col row would).
func dwGatherTap(hacc []int32, img []int8, ki, kj, h, w, outH, outW, stride, padH, padW int, sign int32) {
	oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
	ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
	if ojHi <= ojLo {
		return
	}
	for oi := oiLo; oi < oiHi; oi++ {
		si := oi*stride + ki - padH
		sj := ojLo*stride + kj - padW
		dst := hacc[oi*outW+ojLo : oi*outW+ojHi]
		if stride == 1 {
			src := img[si*w+sj:][:len(dst)]
			if sign > 0 {
				for j, v := range src {
					dst[j] += int32(v)
				}
			} else {
				for j, v := range src {
					dst[j] -= int32(v)
				}
			}
		} else {
			src := img[si*w:]
			for j := range dst {
				dst[j] += sign * int32(src[sj])
				sj += stride
			}
		}
	}
}

// forwardInto is the zero-allocation QDense forward: y and hid are
// caller-owned (y of length Out, hid of at least R). Both stages walk their
// plane masks — the int8 input through Wb, the int16 hidden vector through
// Wc.
func (q *QDense) forwardInto(x []int8, y []int16, hid []int16) {
	for i := 0; i < int(q.R); i++ {
		plus, minus := q.wbSp.row(i)
		hid[i] = clampI16(q.HidMul[i].Apply(runDot(x, plus, minus)))
	}
	for c := 0; c < int(q.Out); c++ {
		plus, minus := q.wcSp.row(c)
		y[c] = clampI16(q.OutMul.Apply(runDot(hid, plus, minus)))
	}
}

// runDot is one ternary row's dot product with v through its plane masks:
// Σ v[plus] − Σ v[minus]. The statement order is deliberate: written as
// acc += v[k<<6+bits.TrailingZeros64(m)], the compiler's BSFQ (which keeps
// its destination on a zero source, so waits for its last write) reused the
// register of the previous activation load, chaining every decode to it and
// nearly doubling the paper-shape tree's time.
func runDot[T int8 | int16](v []T, plus, minus []uint64) int32 {
	var acc int32
	for k, m := range plus {
		vk := v[k<<6:]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			acc += int32(vk[i])
		}
	}
	for k, m := range minus {
		vk := v[k<<6:]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			acc -= int32(vk[i])
		}
	}
	return acc
}

// forwardInto walks the tree through the sparse dense kernels using the
// arena's scratch buffers. The returned score slice is arena-owned.
func (t *QTree) forwardInto(a *arena, x []int8) []int32 {
	L := int(t.NumClasses)
	d := int(t.ProjDim)
	z16 := a.z16[:int(t.Z.Out)]
	t.Z.forwardInto(x, z16, a.denseHid)
	z := a.z8[:len(z16)]
	for i, v := range z16 {
		z[i] = clampI8(t.ZQ.Apply(int32(v)))
	}
	scores := a.scores[:L]
	for j := range scores {
		scores[j] = 0
	}
	wbuf := a.wv[:L]
	vbuf := a.wv[L : 2*L]
	nInt := t.numInternal()
	node := 1 // 1-based
	for {
		t.W[node-1].forwardInto(z, wbuf, a.denseHid)
		t.V[node-1].forwardInto(z, vbuf, a.denseHid)
		for j := 0; j < L; j++ {
			scores[j] += int64(wbuf[j]) * int64(t.lookupTanh(vbuf[j]))
		}
		if node > nInt {
			break // leaf reached
		}
		theta := t.Theta[(node-1)*d : node*d]
		var dot int64
		for i, th := range theta {
			dot += int64(th) * int64(z[i])
		}
		if dot > 0 {
			node = 2 * node
		} else {
			node = 2*node + 1
		}
	}
	out := a.out[:L]
	for j, s := range scores {
		out[j] = int32(s >> 15)
	}
	return out
}
