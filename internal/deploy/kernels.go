package deploy

// Precompiled sparse ternary kernels.
//
// TWN quantisation drives most ternary entries to zero, so iterating a dense
// ternary row wastes the majority of its loop trips on `t == 0` checks. At
// kernel-compilation time (ReadEngine / Compile / first Infer) every ternary
// matrix row is converted into two index lists — the columns of its +1
// entries and the columns of its −1 entries — so the inner loops become
// gather-add / gather-sub over only the nonzeros: one add per nonzero
// ternary entry per output position, the paper's cost model for a
// strassenified matmul. Those index runs are the only compiled form of a
// ternary matrix — conv rows walk them through the SWAR kernels in
// bitplane.go and collane.go, the tree's dense maps walk them scalar.
// Integer addition is exact and commutative, so the sparse kernels are
// bit-identical to the naive dense reference retained in engine.go
// (NaiveInt).

// sparseRows is a compiled ternary matrix: one flat index array holding, per
// row, the run of +1 column indices followed by the run of −1 column
// indices. Row r's runs are idx[off[2r]:off[2r+1]] (plus) and
// idx[off[2r+1]:off[2r+2]] (minus). len(idx) is the matrix's nonzero count;
// planes is its column count, so every index is below it — the bound the
// assembly row walk's O(1) bounds proof rests on (walk.go).
type sparseRows struct {
	idx    []int32
	off    []int32
	planes int
}

// compileRows converts a dense ternary matrix [rows, cols] into its sparse
// row form.
func compileRows(w []int8, rows, cols int) sparseRows {
	nnz := 0
	for _, v := range w {
		if v != 0 {
			nnz++
		}
	}
	s := sparseRows{
		idx:    make([]int32, 0, nnz),
		off:    make([]int32, 2*rows+1),
		planes: cols,
	}
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		for c, v := range row {
			if v > 0 {
				s.idx = append(s.idx, int32(c))
			}
		}
		s.off[2*r+1] = int32(len(s.idx))
		for c, v := range row {
			if v < 0 {
				s.idx = append(s.idx, int32(c))
			}
		}
		s.off[2*r+2] = int32(len(s.idx))
	}
	return s
}

// row returns the +1 and −1 column-index runs of row r.
func (s *sparseRows) row(r int) (plus, minus []int32) {
	return s.idx[s.off[2*r]:s.off[2*r+1]], s.idx[s.off[2*r+1]:s.off[2*r+2]]
}

// compileKernels builds the sparse row forms from a transient unpacked copy
// of the ternary matrices and derives the PolicyInt8 requantisers. Run once
// per engine under Engine.ensureCompiled.
func (q *QConv) compileKernels() {
	wb, wc := q.ternaries()
	q.deriveAct8()
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
// selected by the plus/minus index runs into acc. The first plane is
// assigned rather than added, so acc needs no zeroing pass; an empty row
// zeroes it instead. Remaining planes are folded up to eight at a time —
// the partial sum of eight int8 or int16 values cannot wrap an int32, and
// int32 addition is associative mod 2³², so the result stays bit-identical
// to one-at-a-time accumulation while acc is loaded and stored an eighth as
// often. All slices are resliced to exactly nOut so the inner loops
// bounds-check once, not per element.
//
// It is the portable Go walk for int16 rows (walk.go runs it wherever the
// AVX2 walk does not) and the scalar oracle of both walks: int8 rows take
// the word-packed gatherPlanesI8W (bitplane.go) instead.
func gather[T int8 | int16](acc []int32, planes []T, plus, minus []int32, nOut int) {
	acc = acc[:nOut]
	switch {
	case len(plus) > 0:
		src := planes[int(plus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = int32(v)
		}
		addPlanes(acc, planes, plus[1:], nOut, 1)
		addPlanes(acc, planes, minus, nOut, -1)
	case len(minus) > 0:
		src := planes[int(minus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = -int32(v)
		}
		addPlanes(acc, planes, minus[1:], nOut, -1)
	default:
		clear(acc)
	}
}

// addPlanes adds (sign +1) or subtracts (sign −1) the selected planes into
// acc, up to eight planes per pass.
func addPlanes[T int8 | int16](acc []int32, planes []T, idx []int32, nOut int, sign int32) {
	k := 0
	for ; k+7 < len(idx); k += 8 {
		s1 := planes[int(idx[k])*nOut:][:nOut]
		s2 := planes[int(idx[k+1])*nOut:][:nOut]
		s3 := planes[int(idx[k+2])*nOut:][:nOut]
		s4 := planes[int(idx[k+3])*nOut:][:nOut]
		s5 := planes[int(idx[k+4])*nOut:][:nOut]
		s6 := planes[int(idx[k+5])*nOut:][:nOut]
		s7 := planes[int(idx[k+6])*nOut:][:nOut]
		s8 := planes[int(idx[k+7])*nOut:][:nOut]
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
	}
	for ; k+3 < len(idx); k += 4 {
		s1 := planes[int(idx[k])*nOut:][:nOut]
		s2 := planes[int(idx[k+1])*nOut:][:nOut]
		s3 := planes[int(idx[k+2])*nOut:][:nOut]
		s4 := planes[int(idx[k+3])*nOut:][:nOut]
		if sign > 0 {
			for j := range acc {
				acc[j] += int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j])
			}
		} else {
			for j := range acc {
				acc[j] -= int32(s1[j]) + int32(s2[j]) + int32(s3[j]) + int32(s4[j])
			}
		}
	}
	for ; k < len(idx); k++ {
		src := planes[int(idx[k])*nOut:][:nOut]
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
// stored int8 through the derived hidMul8 requantiser.
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
		q.requantChannel(out[c*os:][:nOut], acc, c)
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
func (q *QConv) dwSparse(a *arena, x, out []int8, h, w, outH, outW int, pol Policy, inStride, outStride int, segs [][2]int) {
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	r := int(q.R)
	acc := a.acc[:nOut]
	hacc := a.acc[pad8(nOut):][:nOut]
	hm, om := q.HidMul, q.OutMul
	var hlo, hhi int32 = -32768, 32767
	if pol == PolicyInt8 {
		hm, om = q.hidMul8, q.outMul8
		hlo, hhi = -128, 127
	}
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
			for _, p := range plus {
				dwGatherTap(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, 1)
			}
			for _, p := range minus {
				dwGatherTap(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, -1)
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
// index runs — the int8 input through Wb, the int16 hidden vector through
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

// runDot is one ternary row's dot product with v through its index runs:
// Σ v[plus] − Σ v[minus].
func runDot[T int8 | int16](v []T, plus, minus []int32) int32 {
	var acc int32
	for _, i := range plus {
		acc += int32(v[i])
	}
	for _, i := range minus {
		acc -= int32(v[i])
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
