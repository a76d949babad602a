package deploy

// The conv-chain driver.
//
// Every pass of the integer engine — a single frame (Infer, InferSafe and
// every InferBatch frame) or an incremental hop (InferHop) — runs one layer
// loop, forward, over an arena: quantise the new input rows, then per conv
// propagate the input's clean interval (cleanOut, hop.go), shift the cached
// output image by the layer's row shift, and recompute the output-row
// segments the shift cannot preserve (runBand), before pooling and the
// tree. A frame pass is that loop with an empty clean interval: every conv
// recomputes its whole plane as one segment. The arena decides what the
// images are:
//
//   - a frame arena lays the input and every conv's output image over two
//     ping-pong planes, the paper's two-plane activation accounting: conv i
//     reads one plane and overwrites the other;
//   - a hop arena gives the input and each conv its own image, which is the
//     hop cache, plus the row buffer a multi-segment band scatters through.
//
// Both read the per-conv geometry the engine computes once under
// compileOnce.

// convGeom is one conv's spatial geometry and channel strides in the
// arenas, computed once by ensureCompiled: output images live at the
// column-lane padded stride pad8(oh·ow), the quantised input at its dense
// h·w.
type convGeom struct {
	h, w      int // input spatial size
	oh, ow    int // output spatial size
	inStride  int // input channel stride (dense for the first conv)
	outStride int // output channel stride, pad8(oh·ow)
}

// pointwise reports a 1×1, stride-1, unpadded conv: its im2col matrix is
// its input image.
func (q *QConv) pointwise() bool {
	return q.KH == 1 && q.KW == 1 && q.Stride == 1 && q.PadH == 0 && q.PadW == 0
}

// arena holds every buffer one pass needs, sized once from the engine's
// compiled shapes so the steady-state hot path performs zero heap
// allocations. An arena is owned by exactly one goroutine at a time:
// Engine.Infer uses the engine's resident arena, InferBatch checks one out
// per chunk, and each HopState owns a hop arena.
type arena struct {
	pol      Policy    // activation policy this arena was sized for
	planes   [][]int8  // image buffers: two ping-pong planes (frame) or the input and one per conv (hop)
	in       []int8    // quantised input image, Frames·Coeffs
	imgs     [][]int8  // conv i's output image, Cout·outStride
	cols     []int8    // im2col scratch (band-local on a hop)
	row      []int8    // one channel's requantised band before its scatter (hop only)
	segs     [2][2]int // the current layer's output-row segments
	hidden   []int16   // standard-conv hidden planes, mixed policy (max r·nOut)
	hidden8  []int8    // standard-conv hidden planes, PolicyInt8
	acc      []int32   // one accumulator row: pad8(nOut) standard, 2·pad8(nOut) depthwise
	pooled   []int8    // average-pool output feeding the tree
	z16      []int16   // tree projection at 16 bit
	z8       []int8    // requantised projection ẑ
	wv       []int16   // per-node W and V outputs (2·L)
	scores   []int64   // class score accumulators
	out      []int32   // returned score slice
	denseHid []int16   // QDense hidden scratch (max R over tree denses)
}

// newArena sizes every buffer from the engine's conv geometry: a frame
// arena (hop false) or a hop arena (see the file comment). A frame pass
// runs every conv over its whole plane, where a pointwise conv reads its
// input image as im2col, so only the other standard convs size the frame
// arena's im2col; a hop band copies a pointwise input to the band stride
// (a band slice at the image stride would let the full-word loads read past
// the plane), so every standard conv sizes the hop arena's.
func newArena(e *Engine, hop bool) *arena {
	h0, w0 := int(e.Frames), int(e.Coeffs)
	maxImg := h0 * w0
	var maxCols, maxHidden, maxAcc, maxNOut int
	for i, q := range e.Convs {
		g := e.geom[i]
		nOut := g.oh * g.ow
		maxNOut = max(maxNOut, nOut)
		maxImg = max(maxImg, int(q.Cout)*g.outStride)
		// Rows run one after another through a single accumulator row;
		// depthwise keeps its channel and per-unit tap rows side by side.
		acc := g.outStride
		switch q.Kind {
		case kindStandard:
			if hop || !q.pointwise() {
				maxCols = max(maxCols, int(q.Cin)*int(q.KH)*int(q.KW)*g.outStride)
			}
			maxHidden = max(maxHidden, int(q.R)*g.outStride)
		case kindDepthwise:
			acc = 2 * g.outStride
		}
		maxAcc = max(maxAcc, acc)
	}
	last := e.geom[len(e.geom)-1]
	ph := (last.oh-int(e.PoolK))/int(e.PoolS) + 1
	pw := (last.ow-int(e.PoolK))/int(e.PoolS) + 1
	cLast := int(e.Convs[len(e.Convs)-1].Cout)

	t := e.Tree
	L := int(t.NumClasses)
	maxR := int(t.Z.R)
	for k := range t.W {
		maxR = max(maxR, int(t.W[k].R), int(t.V[k].R))
	}

	a := &arena{
		pol:      e.Policy,
		imgs:     make([][]int8, len(e.Convs)),
		cols:     make([]int8, maxCols),
		acc:      make([]int32, maxAcc),
		pooled:   make([]int8, cLast*ph*pw),
		z16:      make([]int16, int(t.Z.Out)),
		z8:       make([]int8, int(t.Z.Out)),
		wv:       make([]int16, 2*L),
		scores:   make([]int64, L),
		out:      make([]int32, L),
		denseHid: make([]int16, maxR),
	}
	// A frame arena lays conv i's image over plane (i+1)%2, so every conv
	// reads one plane and writes the other; a hop arena gives the input
	// and each image a buffer of its own. Each buffer is its own
	// allocation: one buffer for all the hop images would be a large
	// object, rounded up to whole pages.
	if hop {
		a.planes = append(a.planes, make([]int8, h0*w0))
		for i, q := range e.Convs {
			a.planes = append(a.planes, make([]int8, int(q.Cout)*e.geom[i].outStride))
		}
		a.row = make([]int8, pad8(maxNOut))
	} else {
		a.planes = [][]int8{make([]int8, maxImg), make([]int8, maxImg)}
	}
	a.in = a.planes[0][:h0*w0]
	for i, q := range e.Convs {
		p := a.planes[(i+1)%2]
		if hop {
			p = a.planes[i+1]
		}
		n := int(q.Cout) * e.geom[i].outStride
		a.imgs[i] = p[:n:n]
	}
	// The hidden planes are the policy-dependent buffer: int16 under the
	// mixed policy, int8 under PolicyInt8 — half the resident activation
	// bytes for the dominant buffer.
	if e.Policy == PolicyInt8 {
		a.hidden8 = make([]int8, maxHidden)
	} else {
		a.hidden = make([]int16, maxHidden)
	}
	return a
}

// bytes reports the arena's total scratch footprint — the steady-state
// activation memory of the integer path, surfaced through
// Engine.ScratchBytes and the telemetry ArenaBytes gauge.
func (a *arena) bytes() int64 {
	n := len(a.cols) + len(a.row) + len(a.hidden8) + len(a.pooled) + len(a.z8)
	for _, p := range a.planes {
		n += len(p)
	}
	n += 2 * (len(a.hidden) + len(a.z16) + len(a.wv) + len(a.denseHid))
	n += 4 * (len(a.acc) + len(a.out))
	n += 8 * len(a.scores)
	return int64(n)
}

// forward runs one pass of the conv chain, pool and tree on arena a at the
// arena's policy and returns the arena-owned scores and how many conv
// output positions the pass computed. x is the whole window; nNew is how
// many of its trailing frame rows are new since the previous pass on a —
// Frames for a frame pass or a cold hop, which leaves the input's clean
// interval empty. The observer's stage hooks (telemetry.go) time and trace
// each conv, the pool and the tree under root when one is attached and do
// nothing otherwise.
func (e *Engine) forward(a *arena, x []float32, nNew int, root obsStage) ([]int32, int64) {
	o := e.obs
	h0, w0 := int(e.Frames), int(e.Coeffs)
	// Shift the input image up nNew rows and quantise the new tail. The
	// retained prefix is bit-identical to re-quantising x's leading rows:
	// quantisation is position-wise and the caller guarantees the values
	// match.
	keep := (h0 - nNew) * w0
	copy(a.in[:keep], a.in[nNew*w0:])
	e.quantizeInto(a.in[keep:], x[keep:])
	aIn, bIn, shift := 0, h0-nNew, nNew
	var computed int64
	img := a.in
	for i, q := range e.Convs {
		s := o.openLayer(root, i)
		g := &e.geom[i]
		out := a.imgs[i]
		aOut, bOut, sOut := cleanOut(q, g, aIn, bIn, shift)
		if sOut > 0 {
			for c := 0; c < int(q.Cout); c++ {
				p := out[c*g.outStride:]
				copy(p[:(g.oh-sOut)*g.ow], p[sOut*g.ow:g.oh*g.ow])
			}
		}
		computed += int64(a.runBand(q, g, img, out, a.bands(aOut, bOut, g.oh)))
		aIn, bIn, shift = aOut, bOut, sOut
		img = out
		o.closeLayer(s, i)
	}
	n := len(e.Convs)
	g := e.geom[n-1]
	c := int(e.Convs[n-1].Cout)
	s := o.openLayer(root, n)
	ph, pw := poolInto(a.pooled, img, c, g.oh, g.ow, int(e.PoolK), int(e.PoolS), g.outStride)
	o.closeLayer(s, n)
	s = o.openLayer(root, n+1)
	sc := e.Tree.forwardInto(a, a.pooled[:c*ph*pw])
	o.closeLayer(s, n+1)
	return sc, computed
}

// bands lists the output-row segments a layer recomputes: the pad-touching
// top band [0,aOut) and the new-data bottom band [bOut,oh). An empty clean
// interval (aOut = bOut = 0) gives the whole plane.
func (a *arena) bands(aOut, bOut, oh int) [][2]int {
	segs := a.segs[:0]
	if aOut > 0 {
		segs = append(segs, [2]int{0, aOut})
	}
	if bOut < oh {
		segs = append(segs, [2]int{bOut, oh})
	}
	return segs
}

// segN counts the output positions a segment list covers.
func segN(segs [][2]int, ow int) int {
	n := 0
	for _, s := range segs {
		n += (s[1] - s[0]) * ow
	}
	return n
}

// runBand is the one conv-layer kernel: it computes the listed output-row
// segments of conv q from input image x into output image out at the
// arena's policy, and returns the number of output positions it computed.
// All segments share one kernel dispatch: the band im2col concatenates
// their rows into a band-local plane at stride pad8(nBand), the compiled
// row kernels run once over the nBand positions, and the requantised rows
// are written in place when there is one segment and scattered back segment
// by segment otherwise. Over the whole plane a pointwise conv reads its
// input image as im2col, at the image's channel stride.
func (a *arena) runBand(q *QConv, g *convGeom, x, out []int8, segs [][2]int) int {
	nBand := segN(segs, g.ow)
	if nBand == 0 {
		return 0
	}
	if q.Kind == kindDepthwise {
		// The fused R = 1 kernel recomputes only the band's 8-column
		// groups; a layer it cannot take recomputes its whole plane.
		// Either way the clean rows come out bit-identical, so the
		// caller's interval propagation is unaffected.
		if !q.dwFused(g.outStride) {
			segs, nBand = a.bands(0, 0, g.oh), g.oh*g.ow
		}
		q.dwSparse(a, x[:int(q.Cin)*g.inStride], out, g.h, g.w, g.oh, g.ow, a.pol, g.inStride, g.outStride, segs)
		return nBand
	}
	kh, kw := int(q.KH), int(q.KW)
	pb := pad8(nBand)
	cols, ps := a.cols, pb
	switch {
	case q.pointwise() && nBand == g.oh*g.ow:
		cols, ps = x[:int(q.Cin)*g.inStride], g.inStride
	case q.pointwise():
		// Each band plane is the input plane's segment rows, contiguous:
		// copy them straight across (the generic lowering walks 1-element
		// taps) and zero only the pad tail the full-word kernels read past
		// nBand.
		cols = cols[:int(q.Cin)*pb]
		for ch := 0; ch < int(q.Cin); ch++ {
			dst := cols[ch*pb:]
			base := 0
			for _, s := range segs {
				n := (s[1] - s[0]) * g.ow
				copy(dst[base:base+n], x[ch*g.inStride+s[0]*g.ow:][:n])
				base += n
			}
			clear(dst[base:pb])
		}
	default:
		cols = cols[:int(q.Cin)*kh*kw*pb]
		im2colBandI8(cols, x, int(q.Cin), g.h, g.w, kh, kw, int(q.Stride),
			int(q.PadH), int(q.PadW), g.inStride, pb, g.ow, segs)
	}

	r, cout := int(q.R), int(q.Cout)
	direct := len(segs) == 1
	base0 := segs[0][0] * g.ow
	acc := a.acc[:pb]
	if a.pol == PolicyInt8 {
		hidden8 := a.hidden8[:r*pb]
		q.stdHiddenRows8(cols, hidden8, acc, nBand, ps)
		if direct {
			q.stdOutRows8(hidden8, acc, out[base0:], nBand, g.outStride)
			return nBand
		}
		hidB := i8Bytes(hidden8)
		for c := 0; c < cout; c++ {
			q.outRowQ8(c, a.row[:nBand], acc, hidB, pb)
			a.scatter(out[c*g.outStride:], segs, g.ow)
		}
		return nBand
	}
	hidden := a.hidden[:r*pb]
	q.stdHiddenRows(cols, hidden, acc, nBand, ps)
	if direct {
		q.stdOutRows(hidden, acc, out[base0:], nBand, g.outStride)
		return nBand
	}
	for c := 0; c < cout; c++ {
		q.wcSp.walkI16(c, acc, hidden, pb)
		q.requantChannel(a.row[:nBand], acc, c)
		a.scatter(out[c*g.outStride:], segs, g.ow)
	}
	return nBand
}

// scatter copies a.row's band rows back into one channel plane's segments.
func (a *arena) scatter(plane []int8, segs [][2]int, ow int) {
	base := 0
	for _, s := range segs {
		n := (s[1] - s[0]) * ow
		copy(plane[s[0]*ow:][:n], a.row[base:base+n])
		base += n
	}
}

// im2colBandI8 lowers the listed output-row segments of an int8 image
// [c,h,w] into band-local column storage: segment rows are concatenated, so
// position (oi,oj) of segment k lands at segBase(k)+(oi−seg.lo)·outW+oj of
// each kh·kw·Cin plane. srcCh is the image's channel stride and dstP the
// band plane stride (pad8(nBand)); dst is zeroed, pad positions included.
// Each row's valid run is computed arithmetically, so the copy loops carry
// no per-element bounds branches and the stride-1 case reduces to memmove.
// A frame pass lowers the whole image as the one segment [0, outH).
func im2colBandI8(dst []int8, x []int8, c, h, w, kh, kw, stride, padH, padW, srcCh, dstP, outW int, segs [][2]int) {
	outH := (h+2*padH-kh)/stride + 1
	clear(dst)
	for ch := 0; ch < c; ch++ {
		img := x[ch*srcCh:][:h*w]
		for ki := 0; ki < kh; ki++ {
			oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
			for kj := 0; kj < kw; kj++ {
				ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
				if ojHi <= ojLo {
					continue
				}
				row := dst[((ch*kh+ki)*kw+kj)*dstP:]
				base := 0
				for _, seg := range segs {
					lo, hi := max(seg[0], oiLo), min(seg[1], oiHi)
					for oi := lo; oi < hi; oi++ {
						si := oi*stride + ki - padH
						sj := ojLo*stride + kj - padW
						drow := row[base+(oi-seg[0])*outW+ojLo : base+(oi-seg[0])*outW+ojHi]
						if stride == 1 {
							copy(drow, img[si*w+sj:])
						} else {
							src := img[si*w:]
							j := 0
							for ; j+1 < len(drow); j += 2 {
								drow[j] = src[sj]
								drow[j+1] = src[sj+stride]
								sj += 2 * stride
							}
							for ; j < len(drow); j++ {
								drow[j] = src[sj]
								sj += stride
							}
						}
					}
					base += (seg[1] - seg[0]) * outW
				}
			}
		}
	}
}
