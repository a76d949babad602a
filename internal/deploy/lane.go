package deploy

// Frame-major batch-lane kernels.
//
// The single-frame SWAR kernels (bitplane.go) pack 8 *activations* of one
// frame per 64-bit word, so a batch re-decodes every ±1 index and re-loads
// every plane base once per frame. The lane kernels flip the layout: element
// i of frame f lives at i·8+f, so one 64-bit word carries the *same*
// activation index across 8 frames and each decoded index is amortised over
// the whole lane. The gathers are the single-frame row walks (walk.go) run
// at plane stride laneW.
//
// The lane pipeline is the single-frame pipeline with every spatial position
// widened 8×: a conv stage over nOut positions becomes the same kernel over
// laneW = nOut·8 lane elements, with no scalar tail (laneW is always a
// multiple of the SWAR group width). Every stage between quantisation and
// the tree's node walk is elementwise across lane slots — gathers sum over
// planes within one slot, requantisation is per element, im2col permutes
// positions, pooling sums positions within a slot — so a ragged lane
// (batch size not divisible by 8) is handled by zero-padding the unused
// slots: their garbage can never leak into a real frame's slot, and each
// real frame's arithmetic is the exact single-frame computation. The tree's
// node walk is data-dependent per frame, so after a lane-wide projection the
// walk runs per real frame on scalars.
//
// Exactness therefore reduces to the row walks' own: the SWAR fold argument
// in bitplane.go (≤ 256 planes of ≤ 255 per 16-bit lane between folds) and
// the AVX2 walk's exact sign extension, with int32 addition commuting mod
// 2³² in both — which is why the lane path is bit-identical to Infer and to
// the int64 scalar oracle, pinned by the property tests in lane_test.go.

import (
	"math"
	"time"

	"repro/internal/tensor"
)

// laneFrames is the number of frames interleaved per lane: one 64-bit word
// of int8 activations.
const laneFrames = 8

// laneMinFrames is the smallest batch slice worth lane-packing; below it the
// padded slots outnumber the real frames and the per-frame scalar path wins.
const laneMinFrames = 5

// laneArena holds every buffer one lane (8 interleaved frames) needs, sized
// once from the engine's compiled shapes like the single-frame arena so the
// steady-state batch path performs zero heap allocations. A lane arena is
// owned by exactly one goroutine at a time; InferBatch checks them out of
// the engine's pool.
type laneArena struct {
	pol        Policy  // activation policy this arena was sized for
	imgA, imgB []int8  // ping-pong lane activation planes (8× the frame size)
	cols       []int8  // lane im2col scratch
	hidden     []int16 // lane hidden planes, mixed policy
	hidden8    []int8  // lane hidden planes, PolicyInt8
	acc        []int32 // row accumulator: laneW for std stages, 2·laneW depthwise
	pooled     []int8  // lane average-pool output feeding the tree
	hidL       []int16 // tree projection hidden lane (Z.R·8)
	z8L        []int8  // requantised lane projection ẑ (Z.Out·8)
	zf         []int8  // one frame's ẑ, untransposed for the node walk
	wv         []int16 // per-node W and V outputs (2·L)
	scores     []int64 // class score accumulators
	out        []int32 // per-frame score scratch
	denseHid   []int16 // QDense hidden scratch for the node walk
}

// newLaneArena sizes the lane buffers by the same conv-chain walk as
// newArena, widened 8×.
func newLaneArena(e *Engine) *laneArena {
	h, w := int(e.Frames), int(e.Coeffs)
	maxImg := h * w
	var maxCols, maxHidden, maxAccPos int
	for _, q := range e.Convs {
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		if q.Kind == kindStandard &&
			!(q.KH == 1 && q.KW == 1 && q.Stride == 1 && q.PadH == 0 && q.PadW == 0) {
			if cols := int(q.Cin) * int(q.KH) * int(q.KW) * nOut; cols > maxCols {
				maxCols = cols
			}
		}
		if out := int(q.Cout) * nOut; out > maxImg {
			maxImg = out
		}
		switch q.Kind {
		case kindStandard:
			if hid := int(q.R) * nOut; hid > maxHidden {
				maxHidden = hid
			}
			if nOut > maxAccPos {
				maxAccPos = nOut
			}
		case kindDepthwise:
			// Depthwise needs the channel accumulator and the per-unit tap
			// accumulator side by side.
			if 2*nOut > maxAccPos {
				maxAccPos = 2 * nOut
			}
		}
		h, w = oh, ow
	}
	ph := (h-int(e.PoolK))/int(e.PoolS) + 1
	pw := (w-int(e.PoolK))/int(e.PoolS) + 1
	cLast := int(e.Convs[len(e.Convs)-1].Cout)

	t := e.Tree
	L := int(t.NumClasses)
	maxR := int(t.Z.R)
	for k := range t.W {
		if r := int(t.W[k].R); r > maxR {
			maxR = r
		}
		if r := int(t.V[k].R); r > maxR {
			maxR = r
		}
	}

	a := &laneArena{
		pol:      e.Policy,
		imgA:     make([]int8, maxImg*laneFrames),
		imgB:     make([]int8, maxImg*laneFrames),
		cols:     make([]int8, maxCols*laneFrames),
		acc:      make([]int32, maxAccPos*laneFrames),
		pooled:   make([]int8, cLast*ph*pw*laneFrames),
		hidL:     make([]int16, int(t.Z.R)*laneFrames),
		z8L:      make([]int8, int(t.Z.Out)*laneFrames),
		zf:       make([]int8, int(t.Z.Out)),
		wv:       make([]int16, 2*L),
		scores:   make([]int64, L),
		out:      make([]int32, L),
		denseHid: make([]int16, maxR),
	}
	if e.Policy == PolicyInt8 {
		a.hidden8 = make([]int8, maxHidden*laneFrames)
	} else {
		a.hidden = make([]int16, maxHidden*laneFrames)
	}
	return a
}

// bytes reports the lane arena's scratch footprint.
func (a *laneArena) bytes() int64 {
	n := len(a.imgA) + len(a.imgB) + len(a.cols) + len(a.hidden8) +
		len(a.pooled) + len(a.z8L) + len(a.zf)
	n += 2 * (len(a.hidden) + len(a.hidL) + len(a.wv) + len(a.denseHid))
	n += 4 * (len(a.acc) + len(a.out))
	n += 8 * len(a.scores)
	return int64(n)
}

// getLaneArena checks a lane arena out of the pool, building one on first
// use; arenas sized for a stale policy are dropped.
func (e *Engine) getLaneArena() *laneArena {
	if a, ok := e.laneArenas.Get().(*laneArena); ok && a.pol == e.Policy {
		return a
	}
	return newLaneArena(e)
}

func (e *Engine) putLaneArena(a *laneArena) { e.laneArenas.Put(a) }

// quantizeLane quantises up to 8 frames into the lane-interleaved input
// image. Unused lane slots are zeroed so a ragged lane is deterministic (and
// provably inert: every lane stage is elementwise across slots).
func (e *Engine) quantizeLane(dst []int8, xs [][]float32) {
	if len(xs) < laneFrames {
		for i := range dst {
			dst[i] = 0
		}
	}
	inv := 1 / e.InScale
	for f, x := range xs {
		for i, v := range x {
			dst[i*laneFrames+f] = clampI8(int32(math.Round(float64(v * inv))))
		}
	}
}

// im2colLaneInto is im2colI8Into over lane-interleaved images: every spatial
// element is an 8-byte lane, so the stride-1 row copies move 8× the bytes
// per call and strided rows copy whole lanes. Padding lanes are zeroed.
func im2colLaneInto(dst []int8, x []int8, c, h, w, kh, kw, stride, padH, padW int) (int, int) {
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	for i := range dst {
		dst[i] = 0
	}
	for ch := 0; ch < c; ch++ {
		img := x[ch*h*w*laneFrames : (ch+1)*h*w*laneFrames]
		for ki := 0; ki < kh; ki++ {
			oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
			for kj := 0; kj < kw; kj++ {
				ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
				if ojHi <= ojLo {
					continue
				}
				row := dst[((ch*kh+ki)*kw+kj)*nOut*laneFrames : ((ch*kh+ki)*kw+kj+1)*nOut*laneFrames]
				for oi := oiLo; oi < oiHi; oi++ {
					si := oi*stride + ki - padH
					sj := ojLo*stride + kj - padW
					drow := row[(oi*outW+ojLo)*laneFrames : (oi*outW+ojHi)*laneFrames]
					if stride == 1 {
						copy(drow, img[(si*w+sj)*laneFrames:])
					} else {
						src := img[si*w*laneFrames:]
						for j := 0; j*laneFrames < len(drow); j++ {
							copy(drow[j*laneFrames:(j+1)*laneFrames], src[sj*laneFrames:(sj+1)*laneFrames])
							sj += stride
						}
					}
				}
			}
		}
	}
	return outH, outW
}

// forwardLane runs the convolution over a lane image, the frame-major
// counterpart of forwardInto.
func (q *QConv) forwardLane(a *laneArena, x, out []int8, h, w int, pol Policy) (int, int) {
	kh, kw, stride := int(q.KH), int(q.KW), int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	if q.Kind == kindDepthwise {
		q.dwLane(a, x, out[:int(q.Cin)*nOut*laneFrames], h, w, outH, outW, pol)
		return outH, outW
	}
	var cols []int8
	if kh == 1 && kw == 1 && stride == 1 && padH == 0 && padW == 0 {
		cols = x[:int(q.Cin)*nOut*laneFrames]
	} else {
		cols = a.cols[:int(q.Cin)*kh*kw*nOut*laneFrames]
		im2colLaneInto(cols, x, int(q.Cin), h, w, kh, kw, stride, padH, padW)
	}
	q.stdLane(a, cols, out[:int(q.Cout)*nOut*laneFrames], nOut, pol)
	return outH, outW
}

// stdLane is the standard-conv lane kernel. Standard-conv rows are
// position-wise, so a lane runs the single-frame row stages as one frame of
// laneW = nOut·8 columns. Rows run serially — batch parallelism is across
// lanes, not within a stage — and the row accumulator is reused, so the
// working set is one laneW strip of int32 plus the lane planes.
func (q *QConv) stdLane(a *laneArena, cols, out []int8, nOut int, pol Policy) {
	laneW := nOut * laneFrames
	acc := a.acc[:laneW]
	if pol == PolicyInt8 {
		hidden8 := a.hidden8[:int(q.R)*laneW]
		q.stdHiddenRows8(cols, hidden8, acc, laneW, laneW)
		q.stdOutRows8(hidden8, acc, out, laneW, laneW)
		return
	}
	hidden := a.hidden[:int(q.R)*laneW]
	q.stdHiddenRows(cols, hidden, acc, laneW, laneW)
	q.stdOutRows(hidden, acc, out, laneW, laneW)
}

// dwGatherTapLane adds (sign +1) or subtracts (sign −1) one kernel tap's
// sliding window of the lane image into hacc, lane-widened dwGatherTap:
// every position moves 8 bytes.
func dwGatherTapLane(hacc []int32, img []int8, ki, kj, h, w, outH, outW, stride, padH, padW int, sign int32) {
	oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
	ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
	if ojHi <= ojLo {
		return
	}
	for oi := oiLo; oi < oiHi; oi++ {
		si := oi*stride + ki - padH
		sj := ojLo*stride + kj - padW
		dst := hacc[(oi*outW+ojLo)*laneFrames : (oi*outW+ojHi)*laneFrames]
		if stride == 1 {
			src := img[(si*w+sj)*laneFrames:][:len(dst)]
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
			src := img[si*w*laneFrames:]
			for j := 0; j*laneFrames < len(dst); j++ {
				s8 := src[sj*laneFrames:][:laneFrames]
				d8 := dst[j*laneFrames:][:laneFrames]
				if sign > 0 {
					for k, v := range s8 {
						d8[k] += int32(v)
					}
				} else {
					for k, v := range s8 {
						d8[k] -= int32(v)
					}
				}
				sj += stride
			}
		}
	}
}

// dwLane is the depthwise lane kernel, mirroring dwSparse with every
// position widened to an 8-frame lane.
func (q *QConv) dwLane(a *laneArena, x, out []int8, h, w, outH, outW int, pol Policy) {
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	laneW := nOut * laneFrames
	r := int(q.R)
	acc := a.acc[:laneW]
	hacc := a.acc[laneW:][:laneW]
	act8 := pol == PolicyInt8
	for ch := 0; ch < int(q.Cin); ch++ {
		img := x[ch*h*w*laneFrames:][:h*w*laneFrames]
		for j := range acc {
			acc[j] = 0
		}
		for u := 0; u < r; u++ {
			hu := ch*r + u
			wcv := q.wcSign[hu]
			if wcv == 0 {
				continue
			}
			for j := range hacc {
				hacc[j] = 0
			}
			plus, minus := q.wbSp.row(hu)
			for _, p := range plus {
				dwGatherTapLane(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, 1)
			}
			for _, p := range minus {
				dwGatherTapLane(hacc, img, int(p)/kw, int(p)%kw, h, w, outH, outW, stride, padH, padW, -1)
			}
			if act8 {
				m := q.hidMul8[hu]
				if wcv > 0 {
					for j, v := range hacc {
						acc[j] += int32(clampI8(m.Apply(v)))
					}
				} else {
					for j, v := range hacc {
						acc[j] -= int32(clampI8(m.Apply(v)))
					}
				}
			} else {
				m := q.HidMul[hu]
				if wcv > 0 {
					for j, v := range hacc {
						acc[j] += int32(clampI16(m.Apply(v)))
					}
				} else {
					for j, v := range hacc {
						acc[j] -= int32(clampI16(m.Apply(v)))
					}
				}
			}
		}
		if act8 {
			q.requantChannel8(out[ch*laneW:][:laneW], acc, ch)
		} else {
			q.requantChannel(out[ch*laneW:][:laneW], acc, ch)
		}
	}
}

// poolLaneInto average-pools a lane image with the same
// round-half-away-from-zero division as poolInto, summing each lane slot
// independently.
func poolLaneInto(dst []int8, img []int8, c, h, w, k, s int) (int, int) {
	outH := (h-k)/s + 1
	outW := (w-k)/s + 1
	area := int32(k * k)
	var sum [laneFrames]int32
	for ch := 0; ch < c; ch++ {
		src := img[ch*h*w*laneFrames : (ch+1)*h*w*laneFrames]
		for oi := 0; oi < outH; oi++ {
			for oj := 0; oj < outW; oj++ {
				for f := range sum {
					sum[f] = 0
				}
				for ki := 0; ki < k; ki++ {
					row := src[((oi*s+ki)*w+oj*s)*laneFrames:][:k*laneFrames]
					for kj := 0; kj < k; kj++ {
						lane := row[kj*laneFrames:][:laneFrames]
						for f, v := range lane {
							sum[f] += int32(v)
						}
					}
				}
				d := dst[((ch*outH+oi)*outW+oj)*laneFrames:][:laneFrames]
				for f, v := range sum {
					var q int32
					if v >= 0 {
						q = (v + area/2) / area
					} else {
						q = -((-v + area/2) / area)
					}
					d[f] = clampI8(q)
				}
			}
		}
	}
	return outH, outW
}

// forwardLane classifies the n real frames of a lane: the projection runs
// frame-major (the index-run gather and the int16 combine amortise over all
// 8 slots), then each frame's data-dependent node walk untransposes its ẑ
// and runs on scalars, exactly as forwardInto does. Results land in dst,
// reusing each slot's Scores storage.
func (t *QTree) forwardLane(a *laneArena, xLane []int8, n int, dst []BatchResult) {
	L := int(t.NumClasses)
	d := int(t.ProjDim)
	zOut := int(t.Z.Out)
	r := int(t.Z.R)
	xB := i8Bytes(xLane)
	accL := a.acc[:laneFrames]
	hidL := a.hidL[:r*laneFrames]
	for i := 0; i < r; i++ {
		t.Z.wbSp.walkI8(i, accL, xB, laneFrames)
		m := t.Z.HidMul[i]
		dstH := hidL[i*laneFrames:][:laneFrames]
		for f, v := range accL {
			dstH[f] = clampI16(m.Apply(v))
		}
	}
	z8L := a.z8L[:zOut*laneFrames]
	for c := 0; c < zOut; c++ {
		t.Z.wcSp.walkI16(c, accL, hidL, laneFrames)
		dstZ := z8L[c*laneFrames:][:laneFrames]
		for f, v := range accL {
			dstZ[f] = clampI8(t.ZQ.Apply(int32(clampI16(t.Z.OutMul.Apply(v)))))
		}
	}
	nInt := t.numInternal()
	for f := 0; f < n; f++ {
		z := a.zf[:zOut]
		tensor.UnpackLanes8(z, z8L, f)
		scores := a.scores[:L]
		for j := range scores {
			scores[j] = 0
		}
		wbuf := a.wv[:L]
		vbuf := a.wv[L : 2*L]
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
		dst[f] = BatchResult{Scores: append(dst[f].Scores[:0], out...), Class: argmax(out)}
	}
}

// runLane classifies one lane's worth of frames (1–8) into dst. Full, valid
// lanes take the frame-major fast path — observed through the instrumented
// lane pipeline when telemetry is attached, no longer demoted to scalar;
// short lanes and wrong-length frames fall back to the per-frame
// single-frame kernels, and a panic escaping the lane path is retried per
// frame so only the faulting frame reports an error.
func (e *Engine) runLane(xs [][]float32, dst []BatchResult) {
	if len(xs) >= laneMinFrames {
		want := int(e.Frames) * int(e.Coeffs)
		ok := true
		for _, x := range xs {
			if len(x) != want {
				ok = false
				break
			}
		}
		if ok && e.laneInfer(xs, dst) {
			return
		}
	}
	a := e.getArena()
	for i, x := range xs {
		dst[i] = e.inferOne(a, x, dst[i].Scores)
	}
	e.putArena(a)
}

// laneInfer runs the full lane pipeline; it reports false (after recovering)
// if anything panicked, so the caller can re-run the lane per frame with
// proper fault isolation.
func (e *Engine) laneInfer(xs [][]float32, dst []BatchResult) (ok bool) {
	a := e.getLaneArena()
	defer func() {
		e.putLaneArena(a)
		if p := recover(); p != nil {
			ok = false
		}
	}()
	if e.obs != nil {
		e.laneInferObserved(a, xs, dst)
		return true
	}
	pol := a.pol
	want := int(e.Frames) * int(e.Coeffs)
	e.quantizeLane(a.imgA[:want*laneFrames], xs)
	img, next := a.imgA, a.imgB
	h, w := int(e.Frames), int(e.Coeffs)
	for _, conv := range e.Convs {
		oh, ow := conv.forwardLane(a, img[:int(conv.Cin)*h*w*laneFrames], next, h, w, pol)
		img, next = next, img
		h, w = oh, ow
	}
	c := int(e.Convs[len(e.Convs)-1].Cout)
	ph, pw := poolLaneInto(a.pooled, img, c, h, w, int(e.PoolK), int(e.PoolS))
	e.Tree.forwardLane(a, a.pooled[:c*ph*pw*laneFrames], len(xs), dst)
	return true
}

// laneInferObserved is laneInfer's body with per-layer attribution, the lane
// counterpart of inferArenaObserved: a span and a latency observation around
// every stage (each covering all frames of the lane), the whole-lane latency
// in InferNs, and the lane/frame work counters. Kept separate so the
// unobserved lane path retains its exact instruction stream.
func (e *Engine) laneInferObserved(a *laneArena, xs [][]float32, dst []BatchResult) {
	o := e.obs
	root := o.tracer.Span("engine.lane")
	t0 := time.Now()
	pol := a.pol
	want := int(e.Frames) * int(e.Coeffs)
	e.quantizeLane(a.imgA[:want*laneFrames], xs)
	img, next := a.imgA, a.imgB
	h, w := int(e.Frames), int(e.Coeffs)
	for i, conv := range e.Convs {
		sp := root.Child(o.LayerNames[i])
		tl := time.Now()
		oh, ow := conv.forwardLane(a, img[:int(conv.Cin)*h*w*laneFrames], next, h, w, pol)
		o.LayerNs[i].ObserveSince(tl)
		sp.End()
		img, next = next, img
		h, w = oh, ow
	}
	nLayers := len(e.Convs)
	c := int(e.Convs[nLayers-1].Cout)
	sp := root.Child("pool")
	tl := time.Now()
	ph, pw := poolLaneInto(a.pooled, img, c, h, w, int(e.PoolK), int(e.PoolS))
	o.LayerNs[nLayers].ObserveSince(tl)
	sp.End()
	sp = root.Child("tree")
	tl = time.Now()
	e.Tree.forwardLane(a, a.pooled[:c*ph*pw*laneFrames], len(xs), dst)
	o.LayerNs[nLayers+1].ObserveSince(tl)
	sp.End()
	o.InferNs.ObserveSince(t0)
	n := int64(len(xs))
	o.Infers.Add(n)
	o.Gathers.Add(o.gathersPerInfer * n)
	o.LaneLanes.Inc()
	o.LaneFrames.Add(n)
	root.End()
}
