package deploy

import (
	"fmt"
	"math"
	"math/bits"
)

// Float reference path: the engine as it would run with float32 activations.
//
// InferFloat executes the same sparse ternary network with float32 activation
// storage and float64 accumulation — the FakeQuant-style simulation that
// training-side calibration (internal/quant) models. Every requantisation is
// math.Round(acc · m.Float()), every clamp matches the integer saturation
// bounds, and average pooling / tree scoring mirror the integer rounding
// exactly, so the float path is bit-identical to the integer path whenever
// each requant accumulator satisfies |acc|·|Mant| < 2⁵³ (guaranteed by
// |acc| < 2²², which every paper-scale shape meets with well over 2× margin;
// the property tests in int_test.go pin the agreement). The equivalence
// argument:
//
//   - Activations are integer-valued float32 (|v| ≤ 32767 < 2²⁴), so float64
//     sums of them are exact.
//   - m.Float() = Mant/2^Shift is a dyadic rational, exactly representable;
//     acc·m.Float() is exact while acc·Mant fits 53 bits; and math.Round is
//     round-half-away-from-zero — the same rule Mult.Apply implements with
//     its (|prod|+half)>>Shift construction.
//   - Pool and tree divisions are by powers of two or small integers whose
//     correctly-rounded float quotients cannot cross an integer boundary.
//
// This path is the "float engine" baseline that cmd/kws-bench measures the
// word-packed integer kernels against: same sparsity exploitation (index
// gathers over the compiled nonzero runs), but 4-byte activations and no
// word packing. It runs on a resident scratch arena, so like Infer it is not
// safe for concurrent use on one engine.

// floatArena is the float path's scratch memory, sized once from the
// engine's compiled shapes.
type floatArena struct {
	imgA, imgB []float32 // ping-pong activation planes
	cols       []float32 // im2col scratch
	hidden     []float32 // standard-conv hidden planes
	acc        []float64 // row accumulator (+ a second row for depthwise)
	pooled     []float32 // average-pool output feeding the tree
	z16        []float32 // tree projection at the 16-bit scale
	z8         []float32 // requantised projection ẑ
	wv         []float32 // per-node W and V outputs (2·L)
	denseHid   []float32 // QDense hidden scratch
	scores     []float64 // class score accumulators
	out        []int32   // returned score slice
}

// newFloatArena sizes the float path's buffers from the engine's conv
// geometry at the dense plane size oh·ow.
func newFloatArena(e *Engine) *floatArena {
	maxImg := int(e.Frames) * int(e.Coeffs)
	var maxCols, maxHidden, maxNOut int
	for i, q := range e.Convs {
		g := e.geom[i]
		nOut := g.oh * g.ow
		maxNOut = max(maxNOut, nOut)
		maxImg = max(maxImg, int(q.Cout)*nOut)
		if q.Kind == kindStandard {
			if !q.pointwise() {
				maxCols = max(maxCols, int(q.Cin)*int(q.KH)*int(q.KW)*nOut)
			}
			maxHidden = max(maxHidden, int(q.R)*nOut)
		}
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
	return &floatArena{
		imgA:     make([]float32, maxImg),
		imgB:     make([]float32, maxImg),
		cols:     make([]float32, maxCols),
		hidden:   make([]float32, maxHidden),
		acc:      make([]float64, 2*maxNOut),
		pooled:   make([]float32, cLast*ph*pw),
		z16:      make([]float32, int(t.Z.Out)),
		z8:       make([]float32, int(t.Z.Out)),
		wv:       make([]float32, 2*L),
		denseHid: make([]float32, maxR),
		scores:   make([]float64, L),
		out:      make([]int32, L),
	}
}

// bytes reports the float arena's steady-state size: the float-baseline
// column of the footprint comparison against ScratchBytes.
func (fa *floatArena) bytes() int64 {
	n := len(fa.imgA) + len(fa.imgB) + len(fa.cols) + len(fa.hidden) +
		len(fa.pooled) + len(fa.z16) + len(fa.z8) + len(fa.wv) + len(fa.denseHid)
	return int64(4*n + 8*(len(fa.acc)+len(fa.scores)) + 4*len(fa.out))
}

// FloatScratchBytes reports the steady-state activation scratch of the
// float32 reference simulation — what a non-quantised deployment of the same
// model would hold resident. Builds the float arena if needed.
func (e *Engine) FloatScratchBytes() int64 {
	e.ensureCompiled()
	if e.farena == nil {
		e.farena = newFloatArena(e)
	}
	return e.farena.bytes()
}

// clampF saturates to [lo, hi].
func clampF(v, lo, hi float64) float64 {
	if v > hi {
		return hi
	}
	if v < lo {
		return lo
	}
	return v
}

// InferFloat classifies one float MFCC image through the float32 reference
// simulation at the engine's current Policy, returning integer class scores
// and the argmax class. The scores slice is arena-owned, valid until the
// next InferFloat call. Not safe for concurrent use on one engine.
func (e *Engine) InferFloat(x []float32) (scores []int32, class int) {
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	e.ensureCompiled()
	if e.farena == nil {
		e.farena = newFloatArena(e)
	}
	fa := e.farena
	// Input quantisation is the ADC boundary: even a float engine snaps the
	// input to the int8 grid, using the exact expression quantizeInto uses.
	inv := 1 / e.InScale
	in := fa.imgA[:len(x)]
	for i, v := range x {
		in[i] = float32(clampI8(int32(math.Round(float64(v * inv)))))
	}
	img, next := fa.imgA, fa.imgB
	h, w := int(e.Frames), int(e.Coeffs)
	for _, conv := range e.Convs {
		oh, ow := conv.forwardFloat(fa, img[:int(conv.Cin)*h*w], next, h, w, e.Policy)
		img, next = next, img
		h, w = oh, ow
	}
	c := int(e.Convs[len(e.Convs)-1].Cout)
	ph, pw := poolIntoF(fa.pooled, img, c, h, w, int(e.PoolK), int(e.PoolS))
	sc := e.Tree.forwardFloat(fa, fa.pooled[:c*ph*pw])
	return sc, argmax(sc)
}

// im2colF32Into lowers a float32 image [c,h,w] into dense [c·kh·kw, nOut]
// columns over the whole window, zeroing the padding taps: the float
// counterpart of im2colBandI8 over the single band [0, outH).
func im2colF32Into(dst []float32, x []float32, c, h, w, kh, kw, stride, padH, padW int) (int, int) {
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	for i := range dst {
		dst[i] = 0
	}
	for ch := 0; ch < c; ch++ {
		img := x[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
			for kj := 0; kj < kw; kj++ {
				ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
				if ojHi <= ojLo {
					continue
				}
				row := dst[((ch*kh+ki)*kw+kj)*nOut : ((ch*kh+ki)*kw+kj+1)*nOut]
				for oi := oiLo; oi < oiHi; oi++ {
					si := oi*stride + ki - padH
					sj := ojLo*stride + kj - padW
					drow := row[oi*outW+ojLo : oi*outW+ojHi]
					if stride == 1 {
						copy(drow, img[si*w+sj:])
					} else {
						src := img[si*w:]
						for j := range drow {
							drow[j] = src[sj]
							sj += stride
						}
					}
				}
			}
		}
	}
	return outH, outW
}

// gatherF32 accumulates the ternary combination of float32 planes selected
// by the plus/minus plane masks into the float64 accumulator.
func gatherF32(acc []float64, planes []float32, plus, minus []uint64, nOut int) {
	acc = acc[:nOut]
	clear(acc)
	for k, m := range plus {
		for m != 0 {
			p := k<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			for j, v := range planes[p*nOut:][:nOut] {
				acc[j] += float64(v)
			}
		}
	}
	for k, m := range minus {
		for m != 0 {
			p := k<<6 + bits.TrailingZeros64(m)
			m &= m - 1
			for j, v := range planes[p*nOut:][:nOut] {
				acc[j] -= float64(v)
			}
		}
	}
}

// forwardFloat runs the convolution through the plane masks over float32
// activations.
func (q *QConv) forwardFloat(fa *floatArena, x []float32, out []float32, h, w int, pol Policy) (int, int) {
	kh, kw, stride := int(q.KH), int(q.KW), int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	if q.Kind == kindDepthwise {
		q.dwFloat(fa, x, out[:int(q.Cin)*nOut], h, w, outH, outW, pol)
		return outH, outW
	}
	var cols []float32
	if q.pointwise() {
		cols = x[:int(q.Cin)*nOut]
	} else {
		cols = fa.cols[:int(q.Cin)*kh*kw*nOut]
		im2colF32Into(cols, x, int(q.Cin), h, w, kh, kw, stride, padH, padW)
	}
	r, cout := int(q.R), int(q.Cout)
	hidden := fa.hidden[:r*nOut]
	acc := fa.acc[:nOut]
	for i := 0; i < r; i++ {
		plus, minus := q.wbSp.row(i)
		gatherF32(acc, cols, plus, minus, nOut)
		dst := hidden[i*nOut:][:nOut]
		if pol == PolicyInt8 {
			mf := q.hidMul8[i].Float()
			for j, v := range acc {
				dst[j] = float32(clampF(math.Round(v*mf), -128, 127))
			}
		} else {
			mf := q.HidMul[i].Float()
			for j, v := range acc {
				dst[j] = float32(clampF(math.Round(v*mf), -32768, 32767))
			}
		}
	}
	for c := 0; c < cout; c++ {
		plus, minus := q.wcSp.row(c)
		gatherF32(acc, hidden, plus, minus, nOut)
		q.requantFloat(out[c*nOut:][:nOut], acc, c, pol)
	}
	return outH, outW
}

// requantFloat is requantChannel in the float simulation.
func (q *QConv) requantFloat(dst []float32, acc []float64, c int, pol Policy) {
	m := q.OutMul[c]
	if pol == PolicyInt8 {
		m = q.outMul8[c]
	}
	mf := m.Float()
	b := float64(q.OutBias[c])
	for j, v := range acc {
		o := math.Round(v*mf) + b
		if q.ReLU && o < 0 {
			o = 0
		}
		dst[j] = float32(clampF(o, -128, 127))
	}
}

// dwGatherTapF adds (sign +1) or subtracts (sign −1) one depthwise tap's
// sliding window of a float32 plane into the float64 accumulator hacc,
// skipping padding positions: the float counterpart of dwGatherTap.
func dwGatherTapF(hacc []float64, img []float32, ki, kj, h, w, outH, outW, stride, padH, padW int, sign float64) {
	oiLo, oiHi := colRuns(h, ki, stride, padH, outH)
	ojLo, ojHi := colRuns(w, kj, stride, padW, outW)
	if ojHi <= ojLo {
		return
	}
	for oi := oiLo; oi < oiHi; oi++ {
		si := oi*stride + ki - padH
		sj := ojLo*stride + kj - padW
		dst := hacc[oi*outW+ojLo : oi*outW+ojHi]
		src := img[si*w:]
		for j := range dst {
			dst[j] += sign * float64(src[sj])
			sj += stride
		}
	}
}

// dwFloat is dwSparse in the float simulation.
func (q *QConv) dwFloat(fa *floatArena, x, out []float32, h, w, outH, outW int, pol Policy) {
	kw := int(q.KW)
	stride := int(q.Stride)
	padH, padW := int(q.PadH), int(q.PadW)
	nOut := outH * outW
	r := int(q.R)
	acc := fa.acc[:nOut]
	hacc := fa.acc[nOut:][:nOut]
	act8 := pol == PolicyInt8
	for ch := 0; ch < int(q.Cin); ch++ {
		img := x[ch*h*w:][:h*w]
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
			for k, m := range plus {
				for ; m != 0; m &= m - 1 {
					p := k<<6 + bits.TrailingZeros64(m)
					dwGatherTapF(hacc, img, p/kw, p%kw, h, w, outH, outW, stride, padH, padW, 1)
				}
			}
			for k, m := range minus {
				for ; m != 0; m &= m - 1 {
					p := k<<6 + bits.TrailingZeros64(m)
					dwGatherTapF(hacc, img, p/kw, p%kw, h, w, outH, outW, stride, padH, padW, -1)
				}
			}
			var mf, lim float64
			if act8 {
				mf, lim = q.hidMul8[hu].Float(), 127
			} else {
				mf, lim = q.HidMul[hu].Float(), 32767
			}
			if wcv > 0 {
				for j, v := range hacc {
					acc[j] += clampF(math.Round(v*mf), -lim-1, lim)
				}
			} else {
				for j, v := range hacc {
					acc[j] -= clampF(math.Round(v*mf), -lim-1, lim)
				}
			}
		}
		q.requantFloat(out[ch*nOut:][:nOut], acc, ch, pol)
	}
}

// poolIntoF is poolInto in the float simulation: round-half-away-from-zero
// integer division carried out in float64. The quotient of two exact
// integers below 2⁵³ is correctly rounded, so Floor of it equals the integer
// division result.
func poolIntoF(dst, img []float32, c, h, w, k, s int) (int, int) {
	outH := (h-k)/s + 1
	outW := (w-k)/s + 1
	area := float64(k * k)
	half := float64((k * k) / 2)
	for ch := 0; ch < c; ch++ {
		src := img[ch*h*w : (ch+1)*h*w]
		for oi := 0; oi < outH; oi++ {
			for oj := 0; oj < outW; oj++ {
				var sum float64
				for ki := 0; ki < k; ki++ {
					row := src[(oi*s+ki)*w+oj*s:]
					for kj := 0; kj < k; kj++ {
						sum += float64(row[kj])
					}
				}
				var q float64
				if sum >= 0 {
					q = math.Floor((sum + half) / area)
				} else {
					q = -math.Floor((-sum + half) / area)
				}
				dst[(ch*outH+oi)*outW+oj] = float32(clampF(q, -128, 127))
			}
		}
	}
	return outH, outW
}

// forwardFloat is QDense.forwardInto in the float simulation. The tree
// denses always run the 16-bit hidden layout regardless of policy, matching
// the integer path.
func (q *QDense) forwardFloat(x []float32, y []float32, hid []float32) {
	r := int(q.R)
	for i := 0; i < r; i++ {
		plus, minus := q.wbSp.row(i)
		acc := maskDotF(x, plus, minus)
		hid[i] = float32(clampF(math.Round(acc*q.HidMul[i].Float()), -32768, 32767))
	}
	mf := q.OutMul.Float()
	for c := 0; c < int(q.Out); c++ {
		plus, minus := q.wcSp.row(c)
		acc := maskDotF(hid, plus, minus)
		y[c] = float32(clampF(math.Round(acc*mf), -32768, 32767))
	}
}

// maskDotF is runDot in the float simulation.
func maskDotF(v []float32, plus, minus []uint64) float64 {
	var acc float64
	for k, m := range plus {
		vk := v[k<<6:]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			acc += float64(vk[i])
		}
	}
	for k, m := range minus {
		vk := v[k<<6:]
		for m != 0 {
			i := bits.TrailingZeros64(m)
			m &= m - 1
			acc -= float64(vk[i])
		}
	}
	return acc
}

// forwardFloat is QTree.forwardInto in the float simulation. Scores
// accumulate in float64 (|w·tanh| < 2³⁰, exact), and the final >>15 becomes
// an exact power-of-two division under Floor.
func (t *QTree) forwardFloat(fa *floatArena, x []float32) []int32 {
	L := int(t.NumClasses)
	d := int(t.ProjDim)
	z16 := fa.z16[:int(t.Z.Out)]
	t.Z.forwardFloat(x, z16, fa.denseHid)
	z := fa.z8[:len(z16)]
	zqf := t.ZQ.Float()
	for i, v := range z16 {
		z[i] = float32(clampF(math.Round(float64(v)*zqf), -128, 127))
	}
	scores := fa.scores[:L]
	for j := range scores {
		scores[j] = 0
	}
	wbuf := fa.wv[:L]
	vbuf := fa.wv[L : 2*L]
	nInt := t.numInternal()
	node := 1 // 1-based
	for {
		t.W[node-1].forwardFloat(z, wbuf, fa.denseHid)
		t.V[node-1].forwardFloat(z, vbuf, fa.denseHid)
		for j := 0; j < L; j++ {
			// vbuf holds integer values in the int16 range, so the narrowing
			// is exact and the LUT bucket matches the integer path's.
			scores[j] += float64(wbuf[j]) * float64(t.lookupTanh(int16(vbuf[j])))
		}
		if node > nInt {
			break // leaf reached
		}
		theta := t.Theta[(node-1)*d : node*d]
		var dot float64
		for i, th := range theta {
			dot += float64(th) * float64(z[i])
		}
		if dot > 0 {
			node = 2 * node
		} else {
			node = 2*node + 1
		}
	}
	out := fa.out[:L]
	for j, s := range scores {
		out[j] = int32(math.Floor(s / 32768))
	}
	return out
}
