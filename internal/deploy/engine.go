package deploy

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Conv kinds.
const (
	kindStandard  byte = 'c' // strassenified standard convolution
	kindDepthwise byte = 'd' // strassenified depthwise convolution
)

// QConv is one integer strassenified convolution with folded batch-norm and
// an optional fused ReLU.
//
// Dataflow (standard kind): int8 input → im2col → ternary matmul (int32) →
// per-hidden-unit fixed-point rescale to int16 (the â multiply) → ternary
// 1×1 matmul (int32) → per-channel rescale + bias (+ReLU) → int8 output.
type QConv struct {
	Kind                        byte
	Cin, Cout                   int32
	KH, KW                      int32
	Stride, PadH, PadW          int32
	R                           int32 // hidden units (standard) or units/channel (depthwise)
	WbPacked, WcPacked          []byte
	HidMul                      []Mult  // per hidden unit: â_i·inScale/hidScale
	OutMul                      []Mult  // per channel: g_c·hidScale/outScale (BN folded)
	OutBias                     []int32 // per channel, in output-quantised units
	ReLU                        bool
	InScale, HidScale, OutScale float32

	wbSp, wcSp     sparseRows // compiled ±1 plane masks (standard: both; depthwise: Wb)
	wcSign         []int8     // depthwise only: the Cin·R Wc signs, one per hidden unit
	pol            Policy     // the policy the kernels compiled at
	hidReq, outReq []Mult     // its requantisers: HidMul and OutMul, or under PolicyInt8 the derived set

	// Fused R = 1 depthwise tables (collane.go compileDWCol): per-tap linear
	// read offsets and per-group-per-tap lane-validity masks for the SWAR
	// shifted-window loads. dwCol is set only on a layer the fused kernel
	// takes.
	dwCol     bool
	dwColNG   int
	dwColOffs []int32
	dwColMask []uint64
}

// ternaries unpacks fresh dense copies of Wb and Wc. Kernel compilation
// and the oracle call it; neither keeps the copies.
func (q *QConv) ternaries() (wb, wc []int8) {
	if q.Kind == kindDepthwise {
		units := int(q.Cin * q.R)
		return UnpackTernary(q.WbPacked, units*int(q.KH*q.KW)), UnpackTernary(q.WcPacked, units)
	}
	return UnpackTernary(q.WbPacked, int(q.R*q.Cin*q.KH*q.KW)), UnpackTernary(q.WcPacked, int(q.Cout*q.R))
}

// outSize returns the output spatial dims for an input of h×w.
func (q *QConv) outSize(h, w int) (int, int) {
	oh := (h+2*int(q.PadH)-int(q.KH))/int(q.Stride) + 1
	ow := (w+2*int(q.PadW)-int(q.KW))/int(q.Stride) + 1
	return oh, ow
}

// im2colI8 lowers an int8 image [c,h,w] into [c*kh*kw, nOut] columns.
func im2colI8(x []int8, c, h, w, kh, kw, stride, padH, padW int) ([]int8, int, int) {
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	nOut := outH * outW
	cols := make([]int8, c*kh*kw*nOut)
	for ch := 0; ch < c; ch++ {
		img := x[ch*h*w : (ch+1)*h*w]
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := cols[((ch*kh+ki)*kw+kj)*nOut : ((ch*kh+ki)*kw+kj+1)*nOut]
				for oi := 0; oi < outH; oi++ {
					si := oi*stride + ki - padH
					if si < 0 || si >= h {
						continue
					}
					src := img[si*w : (si+1)*w]
					dst := row[oi*outW : (oi+1)*outW]
					for oj := 0; oj < outW; oj++ {
						sj := oj*stride + kj - padW
						if sj < 0 || sj >= w {
							continue
						}
						dst[oj] = src[sj]
					}
				}
			}
		}
	}
	return cols, outH, outW
}

// forwardRef is the naive dense reference path and the engine's scalar
// oracle: it iterates every ternary entry (zeros included) of a Wb/Wc copy
// it unpacks itself, accumulates in int64, and allocates its scratch per
// call, PolicyInt8's requantisers included, so it reads no compiled state.
// The engine's hot path uses the precompiled sparse kernels in kernels.go;
// forwardRef is retained as the correctness oracle behind NaiveInt and the
// sparse-vs-naive property tests. The int64 accumulators are narrowed to
// int32 before each requantisation, so if a sum ever exceeded 32 bits the
// oracle would wrap exactly like the int32 kernels do — the two can only
// diverge if the reference itself overflows int64, which no representable
// shape approaches.
func (q *QConv) forwardRef(x []int8, h, w int, pol Policy) ([]int8, int, int) {
	wb, wc := q.ternaries()
	cols, outH, outW := im2colI8(x, int(q.Cin), h, w, int(q.KH), int(q.KW), int(q.Stride), int(q.PadH), int(q.PadW))
	nOut := outH * outW
	out := make([]int8, int(q.Cout)*nOut)
	hm, om := q.HidMul, q.OutMul
	if pol == PolicyInt8 {
		hm, om = act8Mults(q.HidMul, hidToI8), act8Mults(q.OutMul, i8ToHid)
	}
	switch q.Kind {
	case kindStandard:
		k := int(q.Cin * q.KH * q.KW)
		r := int(q.R)
		// Hidden planes: int16 under the mixed policy, int8 under PolicyInt8.
		// Both live in an int16 buffer here; what matters for exactness is the
		// clamp and multiplier, not the storage width.
		hidden := make([]int16, r*nOut)
		for i := 0; i < r; i++ {
			row := wb[i*k : (i+1)*k]
			acc := make([]int64, nOut)
			for p, t := range row {
				if t == 0 {
					continue
				}
				src := cols[p*nOut : (p+1)*nOut]
				if t > 0 {
					for j, v := range src {
						acc[j] += int64(v)
					}
				} else {
					for j, v := range src {
						acc[j] -= int64(v)
					}
				}
			}
			dst := hidden[i*nOut : (i+1)*nOut]
			m := hm[i]
			if pol == PolicyInt8 {
				for j, v := range acc {
					dst[j] = int16(clampI8(m.Apply(int32(v))))
				}
			} else {
				for j, v := range acc {
					dst[j] = clampI16(m.Apply(int32(v)))
				}
			}
		}
		for c := 0; c < int(q.Cout); c++ {
			row := wc[c*r : (c+1)*r]
			acc := make([]int64, nOut)
			for i, t := range row {
				if t == 0 {
					continue
				}
				src := hidden[i*nOut : (i+1)*nOut]
				if t > 0 {
					for j, v := range src {
						acc[j] += int64(v)
					}
				} else {
					for j, v := range src {
						acc[j] -= int64(v)
					}
				}
			}
			q.requantRef(out[c*nOut:(c+1)*nOut], acc, om[c], q.OutBias[c])
		}
	case kindDepthwise:
		k := int(q.KH * q.KW)
		r := int(q.R)
		for ch := 0; ch < int(q.Cin); ch++ {
			acc := make([]int64, nOut)
			for u := 0; u < r; u++ {
				hu := ch*r + u
				row := wb[hu*k : (hu+1)*k]
				hacc := make([]int64, nOut)
				for p, t := range row {
					if t == 0 {
						continue
					}
					src := cols[(ch*k+p)*nOut : (ch*k+p+1)*nOut]
					if t > 0 {
						for j, v := range src {
							hacc[j] += int64(v)
						}
					} else {
						for j, v := range src {
							hacc[j] -= int64(v)
						}
					}
				}
				wcv := wc[hu]
				if wcv == 0 {
					continue
				}
				m := hm[hu]
				if pol == PolicyInt8 {
					for j, v := range hacc {
						hv := int64(clampI8(m.Apply(int32(v)))) // 8-bit intermediate
						if wcv > 0 {
							acc[j] += hv
						} else {
							acc[j] -= hv
						}
					}
				} else {
					for j, v := range hacc {
						hv := int64(clampI16(m.Apply(int32(v)))) // 16-bit intermediate
						if wcv > 0 {
							acc[j] += hv
						} else {
							acc[j] -= hv
						}
					}
				}
			}
			q.requantRef(out[ch*nOut:(ch+1)*nOut], acc, om[ch], q.OutBias[ch])
		}
	default:
		panic(fmt.Sprintf("deploy: unknown conv kind %q", q.Kind))
	}
	return out, outH, outW
}

// requantRef is forwardRef's int64-accumulator requantisation of one output
// channel by multiplier m and bias b.
func (q *QConv) requantRef(dst []int8, acc []int64, m Mult, b int32) {
	for j, v := range acc {
		o := m.Apply(int32(v)) + b
		if q.ReLU && o < 0 {
			o = 0
		}
		dst[j] = clampI8(o)
	}
}

// QDense is one integer strassenified dense map (used inside the tree):
// int8 input → ternary matvec → per-hidden rescale to int16 → ternary
// matvec → global rescale to int16 at the target scale.
type QDense struct {
	In, Out, R int32
	WbPacked   []byte
	WcPacked   []byte
	HidMul     []Mult
	OutMul     Mult
	OutScale   float32

	wbSp, wcSp sparseRows // compiled ±1 plane masks (hot path, kernels.go)
}

// ternaries unpacks fresh dense copies of Wb and Wc.
func (q *QDense) ternaries() (wb, wc []int8) {
	return UnpackTernary(q.WbPacked, int(q.R*q.In)), UnpackTernary(q.WcPacked, int(q.Out*q.R))
}

// Forward maps an int8 vector to int16 outputs at OutScale. Like
// QConv.Forward this is the allocating dense reference over its own
// unpacked copy; the hot path is forwardInto in kernels.go.
func (q *QDense) Forward(x []int8) []int16 {
	wb, wc := q.ternaries()
	r, in, out := int(q.R), int(q.In), int(q.Out)
	hidden := make([]int16, r)
	for i := 0; i < r; i++ {
		row := wb[i*in : (i+1)*in]
		var acc int32
		for p, t := range row {
			if t > 0 {
				acc += int32(x[p])
			} else if t < 0 {
				acc -= int32(x[p])
			}
		}
		hidden[i] = clampI16(q.HidMul[i].Apply(acc))
	}
	y := make([]int16, out)
	for c := 0; c < out; c++ {
		row := wc[c*r : (c+1)*r]
		var acc int32
		for i, t := range row {
			if t > 0 {
				acc += int32(hidden[i])
			} else if t < 0 {
				acc -= int32(hidden[i])
			}
		}
		y[c] = clampI16(q.OutMul.Apply(acc))
	}
	return y
}

// tanhLUTBits sizes the tanh lookup table: int16 inputs are bucketed into
// 2^tanhLUTBits entries.
const tanhLUTBits = 10

// QTree is the integer Bonsai tree: the projection Z produces int8 ẑ, θ
// routes by sign, and each on-path node contributes
// W(ẑ) ⊙ tanhLUT(V(ẑ)) with the tanh in Q15.
type QTree struct {
	Depth      int32
	ProjDim    int32
	NumClasses int32
	Z          *QDense // outputs int16; requantised to int8 via ZQ
	ZQ         Mult    // int16 (Z.OutScale) → int8 (ZScale)
	ZScale     float32
	Theta      []int16 // [numInternal, projDim], sign-only use
	W, V       []*QDense
	TanhLUT    []int16 // Q15, 2^tanhLUTBits entries over the int16 V range
	WScale     float32 // shared scale of all W outputs
}

// BuildTanhLUT fills a Q15 tanh table for int16 inputs at scale vScale with
// prediction sharpness sigma.
func BuildTanhLUT(vScale float64, sigma float64) []int16 {
	n := 1 << tanhLUTBits
	lut := make([]int16, n)
	step := 65536 / n
	for i := 0; i < n; i++ {
		// Bucket centre in int16 units.
		q := i*step - 32768 + step/2
		real := float64(q) * vScale
		lut[i] = int16(math.Round(math.Tanh(sigma*real) * 32767))
	}
	return lut
}

// lookupTanh maps an int16 V output through the Q15 table.
func (t *QTree) lookupTanh(v int16) int32 {
	idx := (int32(v) + 32768) >> (16 - tanhLUTBits)
	return int32(t.TanhLUT[idx])
}

// numInternal returns the number of branching nodes.
func (t *QTree) numInternal() int { return (1 << t.Depth) - 1 }

// Forward classifies an int8 feature vector, returning per-class scores in
// int32. The >>15 cancels the Q15 tanh, so one count ≈ WScale in float
// units — but only the ordering matters for classification.
func (t *QTree) Forward(x []int8) []int32 {
	z16 := t.Z.Forward(x)
	z := make([]int8, len(z16))
	for i, v := range z16 {
		z[i] = clampI8(t.ZQ.Apply(int32(v)))
	}
	d := int(t.ProjDim)
	L := int(t.NumClasses)
	scores := make([]int64, L)
	nInt := t.numInternal()
	node := 1 // 1-based
	for {
		w := t.W[node-1].Forward(z)
		v := t.V[node-1].Forward(z)
		for j := 0; j < L; j++ {
			scores[j] += int64(w[j]) * int64(t.lookupTanh(v[j]))
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
	out := make([]int32, L)
	for j, s := range scores {
		out[j] = int32(s >> 15)
	}
	return out
}

// Engine is a compiled integer ST-HybridNet.
//
// Infer and InferSafe run on a resident scratch arena and are therefore not
// safe for concurrent use on one engine; concurrent callers use InferBatch,
// which checks a private arena out per call. The scores slice they return
// is arena-owned and valid until the next Infer/InferSafe call on the same
// engine — copy it to retain it.
type Engine struct {
	Frames, Coeffs int32
	InScale        float32
	Convs          []*QConv
	PoolK, PoolS   int32 // square average pool
	Tree           *QTree

	// Policy selects the activation bit widths the integer path runs at:
	// the paper's mixed 8/16-bit assignment (default) or fully 8-bit.
	// Serialised in .thnt v3. It is read once, when the engine compiles
	// (ReadEngine and Compile compile eagerly, a hand-built engine at first
	// use); a write after that panics at the next entry point (WithPolicy).
	Policy Policy

	// Calib is the per-site activation calibration table (input, hidden and
	// output scales per layer) carried by .thnt v3 artifacts. nil for v1/v2
	// artifacts. Purely descriptive: the requantisation multipliers above are
	// the operative constants.
	Calib []CalibEntry

	compileOnce sync.Once   // guards kernel compilation
	pol         Policy      // the Policy the kernels compiled at, written once under compileOnce
	geom        []convGeom  // per-conv geometry, written once under compileOnce
	arena       *arena      // resident arena for Infer/InferSafe
	arenas      sync.Pool   // spare arenas for InferBatch calls
	hopStates   sync.Pool   // released HopStates for streaming sessions (hop.go)
	farena      *floatArena // resident scratch for InferFloat

	// obs, when set via EnableTelemetry, times and traces every stage of
	// forward (telemetry.go). nil (the default) costs one pointer
	// comparison per stage.
	obs *Observer
}

// ensureCompiled walks the conv chain once, recording the policy, each
// conv's geometry (the arenas, the float arena and the observer read it)
// and building its kernels at that policy; nothing writes that state again,
// so concurrent entry points may call it. It panics if Policy has changed.
func (e *Engine) ensureCompiled() {
	e.compileOnce.Do(func() {
		e.pol = e.Policy
		h, w := int(e.Frames), int(e.Coeffs)
		inStride := h * w
		e.geom = make([]convGeom, len(e.Convs))
		for i, q := range e.Convs {
			oh, ow := q.outSize(h, w)
			e.geom[i] = convGeom{h: h, w: w, oh: oh, ow: ow, inStride: inStride, outStride: pad8(oh * ow)}
			q.compileKernels(e.pol)
			q.compileDWCol(h, w)
			h, w, inStride = oh, ow, pad8(oh*ow)
		}
		e.Tree.compileKernels()
	})
	if e.Policy != e.pol {
		panic(fmt.Sprintf("deploy: Engine.Policy set to %v after the engine compiled at %v; use WithPolicy", e.Policy, e.pol))
	}
}

// QuantizeInput converts float MFCC features to int8 at the engine's input
// scale.
func (e *Engine) QuantizeInput(x []float32) []int8 {
	out := make([]int8, len(x))
	e.quantizeInto(out, x)
	return out
}

// quantizeInto is the allocation-free form of QuantizeInput.
func (e *Engine) quantizeInto(dst []int8, x []float32) {
	inv := 1 / e.InScale
	for i, v := range x {
		dst[i] = clampI8(int32(math.Round(float64(v * inv))))
	}
}

// poolInto average-pools an int8 image [c,h,w] with a square k×k window and
// stride s at the same scale (round-half-away-from-zero division), writing
// into caller-owned storage. srcCh is the image's channel stride (h·w dense,
// pad8(h·w) on the column-lane path — the window itself reads only real
// coordinates, so pad columns never enter a sum). Shared by the sparse and
// naive paths, so the two stay bit-identical by construction.
func poolInto(dst []int8, img []int8, c, h, w, k, s, srcCh int) (int, int) {
	outH := (h-k)/s + 1
	outW := (w-k)/s + 1
	area := int32(k * k)
	if k == w && k*w <= sumBytesMax {
		// Full-width window (the paper shape's 5×5 pool over a width-5
		// plane): every window is k·w consecutive bytes, so the sum runs
		// through the SWAR byte folder instead of the nested tap walk,
		// which is exact for windows of up to sumBytesMax bytes.
		for ch := 0; ch < c; ch++ {
			src := img[ch*srcCh:][:h*w]
			for oi := 0; oi < outH; oi++ {
				sum := sumBytesI8(src[oi*s*w : oi*s*w+k*w])
				var q int32
				if sum >= 0 {
					q = (sum + area/2) / area
				} else {
					q = -((-sum + area/2) / area)
				}
				dst[ch*outH+oi] = clampI8(q)
			}
		}
		return outH, outW
	}
	for ch := 0; ch < c; ch++ {
		src := img[ch*srcCh:][:h*w]
		for oi := 0; oi < outH; oi++ {
			for oj := 0; oj < outW; oj++ {
				var sum int32
				for ki := 0; ki < k; ki++ {
					row := src[(oi*s+ki)*w+oj*s:]
					for kj := 0; kj < k; kj++ {
						sum += int32(row[kj])
					}
				}
				var q int32
				if sum >= 0 {
					q = (sum + area/2) / area
				} else {
					q = -((-sum + area/2) / area)
				}
				dst[(ch*outH+oi)*outW+oj] = clampI8(q)
			}
		}
	}
	return outH, outW
}

// Infer classifies one float MFCC image (length Frames·Coeffs) through the
// compiled integer kernels at the engine's policy, returning integer class
// scores and the argmax class. The scores slice is owned by the engine's
// arena and valid until the next Infer/InferSafe call; in steady state
// Infer performs zero heap allocations.
func (e *Engine) Infer(x []float32) (scores []int32, class int) {
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	return e.inferFrame(e.residentArena(), x)
}

// residentArena returns the arena Infer/InferSafe run on, compiling the
// kernels and building the arena on first use.
func (e *Engine) residentArena() *arena {
	e.ensureCompiled()
	if e.arena == nil {
		e.arena = newArena(e, false)
	}
	return e.arena
}

// NaiveInt is the engine's scalar oracle: the dense reference pipeline with
// int64 accumulation at the engine's Policy. The compiled kernels are pinned
// bit-exact against it by the property tests, and cmd/kws-bench measures
// their speedup over it; it allocates per call and is not for production
// use.
func (e *Engine) NaiveInt(x []float32) (scores []int32, class int) {
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	return e.inferNaive(x, e.Policy)
}

// inferFrame classifies one frame on the given arena: the single-frame pass behind Infer, InferSafe and every
// InferBatch frame, which runs the engine's one driver (forward, arena.go)
// with every row of the window new.
func (e *Engine) inferFrame(a *arena, x []float32) ([]int32, int) {
	o := e.obs
	root := o.openInfer()
	sc, _ := e.forward(a, x, int(e.Frames), root)
	o.closeInfer(root)
	return sc, argmax(sc)
}

// inferNaive is the retained dense reference pipeline: per-call scratch
// allocation, every ternary zero visited, strictly single-threaded. It reads
// no compiled state: the weights and requantisers are its own per-call
// copies.
func (e *Engine) inferNaive(x []float32, pol Policy) ([]int32, int) {
	img := e.QuantizeInput(x)
	h, w := int(e.Frames), int(e.Coeffs)
	for _, conv := range e.Convs {
		img, h, w = conv.forwardRef(img, h, w, pol)
	}
	k, s := int(e.PoolK), int(e.PoolS)
	c := int(e.Convs[len(e.Convs)-1].Cout)
	pooled := make([]int8, c*((h-k)/s+1)*((w-k)/s+1))
	poolInto(pooled, img, c, h, w, k, s, h*w)
	sc := e.Tree.Forward(pooled)
	return sc, argmax(sc)
}

// MeasuredDensity reports the realised nonzero fraction across every ternary
// weight matrix in the engine (conv Wb/Wc, the tree projection and node
// maps). Benchmarks record it next to the density that was requested at
// sparsification time, since the two drift apart on small matrices. It
// unpacks its own copy of every matrix per call.
func (e *Engine) MeasuredDensity() float64 {
	var nnz, total int64
	count := func(wb, wc []int8) {
		for _, w := range [][]int8{wb, wc} {
			for _, v := range w {
				if v != 0 {
					nnz++
				}
			}
			total += int64(len(w))
		}
	}
	for _, q := range e.Convs {
		count(q.ternaries())
	}
	denses := append([]*QDense{e.Tree.Z}, append(e.Tree.W, e.Tree.V...)...)
	for _, d := range denses {
		count(d.ternaries())
	}
	if total == 0 {
		return 0
	}
	return float64(nnz) / float64(total)
}

// ScratchBytes reports the steady-state activation scratch the integer path
// holds resident at the engine's policy — the "activation memory" column of
// the paper's footprint table. Builds the arena if needed.
func (e *Engine) ScratchBytes() int64 {
	return e.residentArena().bytes()
}

// WeightFootprint is Engine.WeightBytes broken down by component, in
// resident bytes.
type WeightFootprint struct {
	Masks   int64 `json:"masks"`   // compiled ±1 plane masks of every ternary matrix
	Packed  int64 `json:"packed"`  // packed 2-bit ternaries, the .thnt form
	Requant int64 `json:"requant"` // fixed-point multipliers, the engine's policy's set
	Tables  int64 `json:"tables"`  // output biases, depthwise Wc signs and column tables
	Tree    int64 `json:"tree"`    // θ and the tanh LUT
}

// Total is the sum of the components: Engine.WeightBytes.
func (f WeightFootprint) Total() int64 {
	return f.Masks + f.Packed + f.Requant + f.Tables + f.Tree
}

// WeightFootprint reports the resident bytes of every weight-derived slice
// the compiled engine keeps, by component — the model column of the
// paper's footprint table, measured on the artefact rather than the file.
// Compiles the kernels if needed.
func (e *Engine) WeightFootprint() WeightFootprint {
	e.ensureCompiled()
	mult := int64(unsafe.Sizeof(Mult{}))
	masks := func(s sparseRows) int64 { return 8 * int64(len(s.mask)) }
	var f WeightFootprint
	for _, q := range e.Convs {
		f.Masks += masks(q.wbSp) + masks(q.wcSp)
		f.Packed += int64(len(q.WbPacked) + len(q.WcPacked))
		f.Requant += mult * int64(len(q.HidMul)+len(q.OutMul))
		if q.pol == PolicyInt8 { // the derived set; a mixed conv requantises by HidMul and OutMul
			f.Requant += mult * int64(len(q.hidReq)+len(q.outReq))
		}
		f.Tables += int64(len(q.wcSign)) + 4*int64(len(q.OutBias)+len(q.dwColOffs)) + 8*int64(len(q.dwColMask))
	}
	t := e.Tree
	for _, d := range append([]*QDense{t.Z}, append(t.W, t.V...)...) {
		f.Masks += masks(d.wbSp) + masks(d.wcSp)
		f.Packed += int64(len(d.WbPacked) + len(d.WcPacked))
		f.Requant += mult * int64(len(d.HidMul))
	}
	f.Tree = 2 * int64(len(t.Theta)+len(t.TanhLUT))
	return f
}

// WeightBytes reports the total resident bytes of the compiled engine's
// weights: every component of WeightFootprint. Compiles the kernels if
// needed.
func (e *Engine) WeightBytes() int64 { return e.WeightFootprint().Total() }

func argmax(sc []int32) int {
	best := 0
	for j, v := range sc {
		if v > sc[best] {
			best = j
		}
	}
	return best
}
