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

// forwardInto runs the convolution through the sparse kernels using the
// arena's scratch memory, writing the int8 output image into out. pol picks
// the activation layout for the hidden planes; the arena must have been
// built for the same policy. inStride/outStride are the channel strides of
// x and out: the engine's column-lane path passes pad8(h·w)/pad8(outH·outW)
// so every internal plane gather runs full SWAR width (collane.go), while
// dense callers pass the exact spatial sizes and get the tailed kernels.
func (q *QConv) forwardInto(a *arena, x []int8, out []int8, h, w int, pol Policy, inStride, outStride int) (int, int) {
	kh, kw, stride := int(q.KH), int(q.KW), int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	if q.Kind == kindDepthwise {
		// Depthwise gathers straight from the image (see dwSparse): its
		// im2col matrix would materialise kh·kw rows per channel of which
		// only the Wb nonzeros are ever read.
		q.dwSparse(a, x, out, h, w, outH, outW, pol, inStride, outStride)
		return outH, outW
	}
	pa := pad8(nOut)
	var cols []int8
	ps := pa
	if kh == 1 && kw == 1 && stride == 1 && padH == 0 && padW == 0 {
		// Pointwise: the im2col matrix is the image itself, at whatever
		// channel stride the caller stored it.
		cols = x[:int(q.Cin)*inStride]
		ps = inStride
	} else {
		cols = a.cols[:int(q.Cin)*kh*kw*pa]
		im2colBandI8(cols, x, int(q.Cin), h, w, kh, kw, stride, padH, padW, inStride, pa, outW, [][2]int{{0, outH}})
	}
	q.stdSparse(a, cols, out, nOut, ps, outStride, pol)
	return outH, outW
}

// stdSparse is the standard-conv kernel: SWAR ternary matmul into the
// hidden planes (int16 mixed, int8 under PolicyInt8), then a ternary 1×1
// combine with per-channel requantisation. ps is the im2col plane stride,
// outStride the output channel stride; the hidden planes always live at the
// padded stride pad8(nOut). Rows run serially through the arena's one
// accumulator row.
func (q *QConv) stdSparse(a *arena, cols, out []int8, nOut, ps, outStride int, pol Policy) {
	pa := pad8(nOut)
	acc := a.acc[:pa]
	if pol == PolicyInt8 {
		hidden8 := a.hidden8[:int(q.R)*pa]
		q.stdHiddenRows8(cols, hidden8, acc, nOut, ps)
		q.stdOutRows8(hidden8, acc, out, nOut, outStride)
		return
	}
	hidden := a.hidden[:int(q.R)*pa]
	q.stdHiddenRows(cols, hidden, acc, nOut, ps)
	q.stdOutRows(hidden, acc, out, nOut, outStride)
}

// gatherI8 accumulates the ternary combination of int8 planes selected by
// the plus/minus index runs into acc. The first plane is assigned rather
// than added, so acc needs no zeroing pass; an empty row zeroes it instead.
// Remaining planes are folded up to eight at a time — the partial sum of
// eight int8 values cannot wrap an int32, and int32 addition is associative
// mod 2³², so the result stays bit-identical to one-at-a-time accumulation
// while acc is loaded and stored an eighth as often. All slices are
// resliced to exactly nOut so the inner loops bounds-check once, not per
// element.
//
// The hot path now uses the word-packed gatherPlanesI8W (bitplane.go);
// gatherI8 is retained as its scalar oracle for the kernel-level property
// tests.
func gatherI8(acc []int32, cols []int8, plus, minus []int32, nOut int) {
	acc = acc[:nOut]
	switch {
	case len(plus) > 0:
		src := cols[int(plus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = int32(v)
		}
		addPlanesI8(acc, cols, plus[1:], nOut, 1)
		addPlanesI8(acc, cols, minus, nOut, -1)
	case len(minus) > 0:
		src := cols[int(minus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = -int32(v)
		}
		addPlanesI8(acc, cols, minus[1:], nOut, -1)
	default:
		for j := range acc {
			acc[j] = 0
		}
	}
}

// addPlanesI8 adds (sign +1) or subtracts (sign −1) the selected int8
// planes into acc, up to eight planes per pass.
func addPlanesI8(acc []int32, cols []int8, idx []int32, nOut int, sign int32) {
	k := 0
	for ; k+7 < len(idx); k += 8 {
		s1 := cols[int(idx[k])*nOut:][:nOut]
		s2 := cols[int(idx[k+1])*nOut:][:nOut]
		s3 := cols[int(idx[k+2])*nOut:][:nOut]
		s4 := cols[int(idx[k+3])*nOut:][:nOut]
		s5 := cols[int(idx[k+4])*nOut:][:nOut]
		s6 := cols[int(idx[k+5])*nOut:][:nOut]
		s7 := cols[int(idx[k+6])*nOut:][:nOut]
		s8 := cols[int(idx[k+7])*nOut:][:nOut]
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
		s1 := cols[int(idx[k])*nOut:][:nOut]
		s2 := cols[int(idx[k+1])*nOut:][:nOut]
		s3 := cols[int(idx[k+2])*nOut:][:nOut]
		s4 := cols[int(idx[k+3])*nOut:][:nOut]
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
		src := cols[int(idx[k])*nOut:][:nOut]
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

// gatherI16 is gatherI8 over int16 planes (the mixed policy's hidden
// layer); eight int16 values likewise cannot wrap an int32 partial sum. It
// is the portable Go walk for int16 rows (walk.go dispatches to it wherever
// the AVX2 walk does not run) and the AVX2 walk's oracle.
func gatherI16(acc []int32, planes []int16, plus, minus []int32, nOut int) {
	acc = acc[:nOut]
	switch {
	case len(plus) > 0:
		src := planes[int(plus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = int32(v)
		}
		addPlanesI16(acc, planes, plus[1:], nOut, 1)
		addPlanesI16(acc, planes, minus, nOut, -1)
	case len(minus) > 0:
		src := planes[int(minus[0])*nOut:][:nOut]
		for j, v := range src {
			acc[j] = -int32(v)
		}
		addPlanesI16(acc, planes, minus[1:], nOut, -1)
	default:
		for j := range acc {
			acc[j] = 0
		}
	}
}

// addPlanesI16 adds (sign +1) or subtracts (sign −1) the selected int16
// planes into acc, up to eight planes per pass.
func addPlanesI16(acc []int32, planes []int16, idx []int32, nOut int, sign int32) {
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
func (q *QConv) dwSparse(a *arena, x, out []int8, h, w, outH, outW int, pol Policy, inStride, outStride int) {
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	pa := pad8(nOut)
	r := int(q.R)
	acc := a.acc[:nOut]
	hacc := a.acc[pa:][:pa]
	act8 := pol == PolicyInt8
	// The column-lane walk (collane.go) serves callers at the compiled
	// padded stride; dense-stride callers keep the scalar tap gather. The
	// edge-shifted loads of the fused path need one full word per plane.
	useCol := q.dwCol && outStride == q.dwColNG<<3
	fuse1 := useCol && r == 1 && h*w >= 8
	whole := [][2]int{{0, outH}} // the scalar tap gather's one band: every row
	for ch := 0; ch < int(q.Cin); ch++ {
		img := x[ch*inStride:]
		if fuse1 {
			// One hidden unit per channel: the whole chain fuses into a
			// single pass (dwColQ8/dwColQ16), no int32 round-trips.
			var hm, om Mult
			if act8 {
				hm, om = q.hidMul8[ch], q.outMul8[ch]
			} else {
				hm, om = q.HidMul[ch], q.OutMul[ch]
			}
			if !satMult(hm) && !satMult(om) {
				dst := out[ch*outStride:][:nOut]
				if wcv := q.wcSign[ch]; wcv == 0 {
					// The unit is pruned: the channel requantises a zero
					// accumulator, a constant.
					var lo int32 = -128
					if q.ReLU {
						lo = 0
					}
					half := int64(1) << (om.Shift - 1)
					v0 := q8(0, int64(om.Mant), half, om.Shift, q.OutBias[ch], lo)
					for j := range dst {
						dst[j] = v0
					}
				} else {
					s := int32(1)
					if wcv < 0 {
						s = -1
					}
					plus, minus := q.wbSp.row(ch)
					if act8 {
						q.dwColQ8(dst, i8Bytes(img), plus, minus, hm, s, om, q.OutBias[ch], q.ReLU)
					} else {
						q.dwColQ16(dst, i8Bytes(img), plus, minus, hm, s, om, q.OutBias[ch], q.ReLU)
					}
				}
				continue
			}
		}
		var imgB []byte
		if useCol {
			imgB = i8Bytes(img)
		} else {
			img = img[:h*w]
		}
		for j := range acc {
			acc[j] = 0
		}
		for u := 0; u < r; u++ {
			hu := ch*r + u
			wcv := q.wcSign[hu]
			if wcv == 0 {
				continue
			}
			plus, minus := q.wbSp.row(hu)
			if useCol {
				gLo, gHi := q.dwColUnit(hacc, imgB, plus, minus)
				for j := 0; j < gLo<<3 && j < nOut; j++ {
					hacc[j] = dwColScalarPos(img, plus, minus, h, w, outW, kw, padH, padW, j)
				}
				for j := gHi << 3; j < nOut; j++ {
					hacc[j] = dwColScalarPos(img, plus, minus, h, w, outW, kw, padH, padW, j)
				}
			} else {
				for j := 0; j < nOut; j++ {
					hacc[j] = 0
				}
				for _, p := range plus {
					dwGatherTapBand(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, 1, whole)
				}
				for _, p := range minus {
					dwGatherTapBand(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, -1, whole)
				}
			}
			s := int32(1)
			if wcv < 0 {
				s = -1
			}
			if act8 {
				foldRowI8(acc, hacc[:nOut], q.hidMul8[hu], s)
			} else {
				foldRowI16(acc, hacc[:nOut], q.HidMul[hu], s)
			}
		}
		if act8 {
			q.requantChannel8(out[ch*outStride:][:nOut], acc, ch)
		} else {
			q.requantChannel(out[ch*outStride:][:nOut], acc, ch)
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
