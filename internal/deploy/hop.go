package deploy

import "fmt"

// Incremental hop inference: temporal caching across overlapping streaming
// windows.
//
// A streaming detector re-classifies a sliding one-second window every hop,
// but consecutive windows share all rows except the hop stride: at the
// default 250 ms hop, ~75% of the 49×10 MFCC image — and therefore most of
// every convolution output — is the previous window's content shifted up.
// A HopState caches the quantised input image and every conv layer's output
// image between calls. Each hop it:
//
//  1. shifts every cached image up by the layer's row shift (the input
//     moves nNew rows, a stride-s conv's output moves nNew/s rows), and
//  2. recomputes only the output rows the shift cannot preserve — the
//     top band whose receptive field straddles the (moving) zero-pad
//     boundary and the bottom band that sees the new frames — before
//  3. re-running pooling and the tree head in full (they are ~2% of the
//     per-hop cost).
//
// Shift rule. Let [a, b) be the clean interval of a layer's input: the rows
// whose values equal the previous input shifted up by s rows. Output row j
// of a stride-st, height-kh, pad-p conv reads input rows [j·st−p, j·st−p+kh).
// The cached (shifted) output row is reusable iff that whole window lies in
// [a, b): no pad coordinate is read (the old computation read real rows
// there) and every row read is itself clean. Hence rows
//
//	aOut = ⌈(a+p)/st⌉ … bOut = ⌊(b+p−kh)/st⌋ + 1
//
// are kept, [0,aOut) and [bOut,outH) are recomputed, and [aOut,bOut)
// becomes the next layer's clean interval. A shift that is not a multiple
// of the conv stride (or an empty clean interval) degrades that layer and
// everything downstream to a full recompute — the band machinery runs the
// whole output as one segment, so the fallback shares every instruction
// with the incremental path.
//
// Exactness. The band kernels are the same compiled row kernels the
// full-window path runs (collane.go), fed a band-local im2col matrix at the
// padded stride pad8(nBand); depthwise bands run the full path's fused
// R = 1 kernel over the groups the band touches (dwSparse). Every kernel is
// position-wise exact — int32 accumulation is associative mod 2³², and
// each output position's sum walks the same compiled nonzero indices in the
// same order regardless of which other positions share the dispatch — so a
// recomputed band row is bit-identical to the same row of a full-window
// Infer, and a reused row is bit-identical by induction. TestInferHopMatchesFullStream and the
// property suite in hop_test.go pin the claim over long streams.
//
// A HopState owns all mutable scratch — a hop arena (the rows,
// accumulators and tree buffers, without the frame path's ping-pong images
// and im2col), the cached images and the band im2col — so any number of
// HopStates may run concurrently on one engine, the same contract as
// InferBatch. A single HopState is not safe for concurrent use.
// Steady-state hops allocate nothing.

// hopGeom is one conv layer's spatial geometry and channel strides as the
// hop path caches it: images live at the column-lane padded stride
// pad8(outH·outW).
type hopGeom struct {
	h, w      int // input spatial size
	oh, ow    int // output spatial size
	inStride  int // input channel stride (dense for the first layer)
	outStride int // output channel stride, pad8(oh·ow)
}

// HopStats counts a HopState's work since construction.
type HopStats struct {
	Hops            int64 // InferHop calls completed
	FullRecomputes  int64 // hops that ran the cold/invalid full path
	ColumnsComputed int64 // conv output positions recomputed across all layers
}

// HopState is the per-stream temporal cache for incremental hop inference.
// Obtain one with Engine.NewHopState, feed it consecutive windows through
// Engine.InferHop, and Release it when the stream closes. Invalidate
// discards the cache (the next hop recomputes in full) — callers must do
// that whenever the stream discontinues (gap concealment, seek, reset),
// since the caller contract is that each window's leading rows equal the
// previous window's trailing rows.
type HopState struct {
	e   *Engine
	a   *arena // a hop arena: newArena(e, false)
	pol Policy

	geom []hopGeom

	// Cache: quantised input image plus one output image per conv.
	in    []int8
	imgs  [][]int8
	valid bool

	// Band scratch. cols is the hop path's own im2col storage: unlike the
	// arena's it is also sized for pointwise convs, whose band input must
	// be copied to the band stride (the full path aliases the image, but a
	// band slice at the image stride would let the full-word SWAR loads
	// read past the plane). row stages one channel's requantised band
	// before it is scattered back into the cached image's segments.
	cols []int8
	row  []int8
	segs [][2]int

	lastFull bool
	stats    HopStats
}

// newHopState sizes every cache and scratch buffer from the engine's
// compiled shapes.
func newHopState(e *Engine) *HopState {
	hs := &HopState{
		e:    e,
		a:    newArena(e, false),
		pol:  e.Policy,
		segs: make([][2]int, 0, 2),
	}
	h, w := int(e.Frames), int(e.Coeffs)
	hs.in = make([]int8, h*w)
	inStride := h * w
	maxCols, maxNOut := 0, 0
	for _, q := range e.Convs {
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		if nOut > maxNOut {
			maxNOut = nOut
		}
		if q.Kind == kindStandard {
			if c := int(q.Cin) * int(q.KH) * int(q.KW) * pad8(nOut); c > maxCols {
				maxCols = c
			}
		}
		g := hopGeom{h: h, w: w, oh: oh, ow: ow, inStride: inStride, outStride: pad8(nOut)}
		hs.geom = append(hs.geom, g)
		hs.imgs = append(hs.imgs, make([]int8, int(q.Cout)*g.outStride))
		h, w = oh, ow
		inStride = g.outStride
	}
	hs.cols = make([]int8, maxCols)
	hs.row = make([]int8, pad8(maxNOut))
	return hs
}

// Invalidate discards all cached temporal state. The next hop on this state
// recomputes the full window. Call on any stream discontinuity.
func (hs *HopState) Invalidate() { hs.valid = false }

// LastFull reports whether the most recent hop fell back to a full-window
// recompute (cold cache, invalidation, policy change, or nNew ≥ Frames).
func (hs *HopState) LastFull() bool { return hs.lastFull }

// Stats returns the state's work counters.
func (hs *HopState) Stats() HopStats { return hs.stats }

// NewHopState returns a hop state for incremental streaming inference on
// this engine, reusing a released one when available. States may be used
// concurrently with each other and with InferBatch; a single state must not
// be shared between goroutines.
func (e *Engine) NewHopState() *HopState {
	e.ensureCompiled()
	if v := e.hopStates.Get(); v != nil {
		hs := v.(*HopState)
		hs.Invalidate()
		return hs
	}
	return newHopState(e)
}

// Release invalidates the state and returns it to the engine's pool.
func (hs *HopState) Release() {
	hs.Invalidate()
	hs.e.hopStates.Put(hs)
}

// InferHop classifies one hop of a sliding window through the integer path
// at the engine's current policy, bit-exact with a full-window Infer on the
// same window at a fraction of the work. x is the full current window
// (Frames × Coeffs); nNew is how many trailing frame rows are new since the
// previous call — the caller guarantees x's leading Frames−nNew rows equal
// the previous window's trailing rows. The scores slice is state-owned,
// valid until the next hop on hs.
func (e *Engine) InferHop(hs *HopState, x []float32, nNew int) (scores []int32, class int) {
	if hs.e != e {
		panic("deploy: HopState used with a different engine")
	}
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	return hs.infer(x, nNew)
}

// syncPolicy rebuilds the arena and poisons the cache when the engine's
// policy changed since the last hop (cached activations are policy-specific).
func (hs *HopState) syncPolicy() {
	if pol := hs.e.Policy; pol != hs.pol {
		hs.a = newArena(hs.e, false)
		hs.pol = pol
		hs.valid = false
	}
}

// bandSegs assembles the recompute segments for one layer: the pad-touching
// top band [0,aOut) and the new-data bottom band [bOut,outH).
func (hs *HopState) bandSegs(aOut, bOut, outH int) [][2]int {
	segs := hs.segs[:0]
	if aOut > 0 {
		segs = append(segs, [2]int{0, aOut})
	}
	if bOut < outH {
		segs = append(segs, [2]int{bOut, outH})
	}
	return segs
}

// cleanOut propagates a clean input interval [aIn,bIn) whose rows moved up
// by shift through one conv, returning the reusable output interval and the
// output shift. ok is false when nothing is reusable — the caller runs the
// layer as a full recompute.
func cleanOut(q *QConv, g hopGeom, aIn, bIn, shift int) (aOut, bOut, sOut int, ok bool) {
	st, kh, padH := int(q.Stride), int(q.KH), int(q.PadH)
	if bIn <= aIn || shift%st != 0 {
		return 0, 0, 0, false
	}
	sOut = shift / st
	aOut = (aIn + padH + st - 1) / st
	bOut = (bIn+padH-kh)/st + 1
	if bOut > g.oh {
		bOut = g.oh
	}
	if bOut <= aOut {
		return 0, 0, 0, false
	}
	return aOut, bOut, sOut, true
}

// infer runs one hop. See the file comment for the algorithm.
func (hs *HopState) infer(x []float32, nNew int) ([]int32, int) {
	e := hs.e
	hs.syncPolicy()
	h0, w0 := int(e.Frames), int(e.Coeffs)
	full := !hs.valid || nNew < 0 || nNew >= h0
	warm := hs.valid
	hs.valid = false // poisoned until the hop completes
	pol := hs.pol

	var colsComputed int64
	if warm && !full && nNew == 0 {
		// Identical window: every cached image is exactly current.
	} else if full {
		e.quantizeInto(hs.in, x)
		img := hs.in
		for i, conv := range e.Convs {
			g := hs.geom[i]
			colsComputed += int64(hs.runBand(conv, g, img, hs.imgs[i], hs.bandSegs(g.oh, g.oh, g.oh), pol))
			img = hs.imgs[i]
		}
	} else {
		// Shift the input cache up nNew rows and quantise the new tail.
		// The retained prefix is bit-identical to re-quantising x's leading
		// rows: quantisation is position-wise and the caller guarantees the
		// values match.
		n := h0 * w0
		copy(hs.in[:n-nNew*w0], hs.in[nNew*w0:])
		e.quantizeInto(hs.in[(h0-nNew)*w0:], x[(h0-nNew)*w0:])
		aIn, bIn, shift := 0, h0-nNew, nNew
		img := hs.in
		for i, conv := range e.Convs {
			g := hs.geom[i]
			out := hs.imgs[i]
			aOut, bOut, sOut, ok := cleanOut(conv, g, aIn, bIn, shift)
			if !ok {
				colsComputed += int64(hs.runBand(conv, g, img, out, hs.bandSegs(g.oh, g.oh, g.oh), pol))
				aIn, bIn, shift = 0, 0, 0
				img = out
				continue
			}
			if sOut > 0 {
				for c := 0; c < int(conv.Cout); c++ {
					p := out[c*g.outStride:]
					copy(p[:(g.oh-sOut)*g.ow], p[sOut*g.ow:g.oh*g.ow])
				}
			}
			if segs := hs.bandSegs(aOut, bOut, g.oh); len(segs) > 0 {
				colsComputed += int64(hs.runBand(conv, g, img, out, segs, pol))
			}
			aIn, bIn, shift = aOut, bOut, sOut
			img = out
		}
	}

	last := len(e.Convs) - 1
	g := hs.geom[last]
	c := int(e.Convs[last].Cout)
	a := hs.a
	ph, pw := poolInto(a.pooled, hs.imgs[last], c, g.oh, g.ow, int(e.PoolK), int(e.PoolS), g.outStride)
	sc := e.Tree.forwardInto(a, a.pooled[:c*ph*pw])
	hs.valid = true
	hs.noteHop(full, colsComputed)
	return sc, argmax(sc)
}

// noteHop updates the state's counters and, when telemetry is attached, the
// engine's hop counters. The hop kernels themselves are identical with and
// without an observer — these are plain atomic adds after the fact — so
// telemetry cannot perturb hop results.
func (hs *HopState) noteHop(full bool, colsComputed int64) {
	hs.lastFull = full
	hs.stats.Hops++
	hs.stats.ColumnsComputed += colsComputed
	if full {
		hs.stats.FullRecomputes++
	}
	if o := hs.e.obs; o != nil {
		o.HopInfers.Inc()
		o.HopColumns.Add(colsComputed)
		if full {
			o.HopFull.Inc()
		}
	}
}

// segN counts the output positions a segment list covers.
func segN(segs [][2]int, ow int) int {
	n := 0
	for _, s := range segs {
		n += (s[1] - s[0]) * ow
	}
	return n
}

// runBand recomputes the listed output-row segments of one conv from the
// current input image, writing them into the cached output image, and
// returns the number of output positions it computed. All segments share
// one kernel dispatch: the band im2col concatenates their rows into a
// band-local plane at stride pad8(nBand), the compiled row kernels run once
// over the nBand positions, and the requantised rows are scattered back
// segment by segment (written in place when there is only one segment).
func (hs *HopState) runBand(q *QConv, g hopGeom, x, out []int8, segs [][2]int, pol Policy) int {
	nBand := segN(segs, g.ow)
	if nBand == 0 {
		return 0
	}
	if q.Kind == kindDepthwise {
		// The fused R = 1 kernel recomputes only the band's 8-column
		// groups; a layer it cannot take recomputes its whole plane. Either way the clean rows come out bit-identical, so the
		// caller's interval propagation is unaffected.
		if !q.dwFused(g.outStride) {
			segs, nBand = hs.bandSegs(g.oh, g.oh, g.oh), g.oh*g.ow
		}
		q.dwSparse(hs.a, x[:int(q.Cin)*g.inStride], out, g.h, g.w, g.oh, g.ow, pol, g.inStride, g.outStride, segs)
		return nBand
	}
	kh, kw := int(q.KH), int(q.KW)
	pb := pad8(nBand)
	cols := hs.cols[:int(q.Cin)*kh*kw*pb]
	if kh == 1 && kw == 1 && q.Stride == 1 && q.PadH == 0 && q.PadW == 0 {
		// Pointwise: each band plane is the input plane's segment rows,
		// contiguous — copy them straight across (the generic lowering
		// walks 1-element taps) and zero only the pad tail the full-word
		// kernels read past nBand.
		for ch := 0; ch < int(q.Cin); ch++ {
			dst := cols[ch*pb:]
			base := 0
			for _, s := range segs {
				n := (s[1] - s[0]) * g.ow
				copy(dst[base:base+n], x[ch*g.inStride+s[0]*g.ow:][:n])
				base += n
			}
			for i := base; i < pb; i++ {
				dst[i] = 0
			}
		}
	} else {
		im2colBandI8(cols, x, int(q.Cin), g.h, g.w, kh, kw, int(q.Stride),
			int(q.PadH), int(q.PadW), g.inStride, pb, g.ow, segs)
	}

	a := hs.a
	r, cout := int(q.R), int(q.Cout)
	direct := len(segs) == 1
	base0 := segs[0][0] * g.ow
	acc := a.acc[:pb]
	if pol == PolicyInt8 {
		hidden8 := a.hidden8[:r*pb]
		q.stdHiddenRows8(cols, hidden8, acc, nBand, pb)
		if direct {
			q.stdOutRows8(hidden8, acc, out[base0:], nBand, g.outStride)
			return nBand
		}
		hidB := i8Bytes(hidden8)
		for c := 0; c < cout; c++ {
			q.outRowQ8(c, hs.row[:nBand], acc, hidB, pb)
			hs.scatter(out[c*g.outStride:], segs, g.ow)
		}
		return nBand
	}
	hidden := a.hidden[:r*pb]
	q.stdHiddenRows(cols, hidden, acc, nBand, pb)
	if direct {
		q.stdOutRows(hidden, acc, out[base0:], nBand, g.outStride)
		return nBand
	}
	for c := 0; c < cout; c++ {
		q.wcSp.walkI16(c, acc, hidden, pb)
		q.requantChannel(hs.row[:nBand], acc, c)
		hs.scatter(out[c*g.outStride:], segs, g.ow)
	}
	return nBand
}

// scatter copies hs.row's band rows back into one channel plane's
// segments.
func (hs *HopState) scatter(plane []int8, segs [][2]int, ow int) {
	base := 0
	for _, s := range segs {
		n := (s[1] - s[0]) * ow
		copy(plane[s[0]*ow:][:n], hs.row[base:base+n])
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
// The full-window path (forwardInto) lowers the whole image as the one
// segment [0, outH).
func im2colBandI8(dst []int8, x []int8, c, h, w, kh, kw, stride, padH, padW, srcCh, dstP, outW int, segs [][2]int) {
	outH := (h+2*padH-kh)/stride + 1
	for i := range dst {
		dst[i] = 0
	}
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
					lo, hi := seg[0], seg[1]
					if lo < oiLo {
						lo = oiLo
					}
					if hi > oiHi {
						hi = oiHi
					}
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
