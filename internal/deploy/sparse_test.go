package deploy

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randTernaryPacked packs n random ternary values at the given density.
func randTernaryPacked(rng *rand.Rand, n int, density float64) []byte {
	vals := make([]int8, n)
	for i := range vals {
		if rng.Float64() < density {
			if rng.Intn(2) == 0 {
				vals[i] = 1
			} else {
				vals[i] = -1
			}
		}
	}
	return PackTernary(vals)
}

// randMults draws multipliers from [0.1, 0.95): large enough that a layer's
// outputs vary with its input instead of collapsing to the bias, so a wrong
// tap, unit, row or clamp shows.
func randMults(rng *rand.Rand, n int) []Mult {
	ms := make([]Mult, n)
	for i := range ms {
		ms[i] = NewMult(0.1 + 0.85*rng.Float64())
	}
	return ms
}

// scoreSpread records whether an oracle gave an engine more than one score
// vector over its trials. A parity check over an engine whose scores never
// vary compares constants, which a kernel that computes nothing also
// matches, so each randomized parity test asserts a floor on how many of
// its engines vary (checkVarying).
type scoreSpread struct {
	first  []int32
	varies bool
}

func (s *scoreSpread) add(sc []int32) {
	if s.first == nil {
		s.first = append([]int32(nil), sc...)
	} else if !slices.Equal(s.first, sc) {
		s.varies = true
	}
}

// checkVarying fails unless at least a third of n engines gave varying
// oracle scores. Only the mixed policy is counted: randMults' hidden
// multipliers leave the derived int8 hidden rescale (hidToI8, ≈ 1/258)
// near zero, so under PolicyInt8 a random engine's scores are constant.
func checkVarying(t *testing.T, varying, n int) {
	t.Helper()
	if varying < n/3 {
		t.Fatalf("only %d of %d engines give varying oracle scores, want at least %d", varying, n, n/3)
	}
}

// arenaForConv sizes a minimal arena for one convolution, so kernels can be
// property-tested without a full engine.
func arenaForConv(q *QConv, h, w int) *arena {
	oh, ow := q.outSize(h, w)
	// Internal planes and the accumulator row live at the column-lane
	// padded stride even when the caller's input/output strides are dense.
	// Rows share one accumulator row; depthwise keeps two side by side.
	pa := pad8(oh * ow)
	acc := pa
	if q.Kind == kindDepthwise {
		acc = 2 * pa
	}
	return &arena{
		cols:    make([]int8, int(q.Cin)*int(q.KH)*int(q.KW)*pa),
		hidden:  make([]int16, int(q.R)*pa),
		hidden8: make([]int8, int(q.R)*pa),
		acc:     make([]int32, acc),
	}
}

// runConv runs conv q over its whole output plane from an h×w input
// through runBand, the engine's conv-layer kernel, at policy pol and the
// given channel strides.
func runConv(a *arena, q *QConv, x, out []int8, h, w int, pol Policy, inStride, outStride int) {
	oh, ow := q.outSize(h, w)
	g := convGeom{h: h, w: w, oh: oh, ow: ow, inStride: inStride, outStride: outStride}
	a.pol = pol
	a.runBand(q, &g, x, out, a.bands(0, 0, oh))
}

// TestSparseConvMatchesNaive asserts the sparse gather kernels produce
// bit-identical output to the retained dense reference across randomized
// shapes, densities and seeds, for both conv kinds, with the depthwise
// column tables compiled as the engine compiles them and live multipliers.
// Every case runs at the dense channel strides; each depthwise case also
// runs at the padded strides of the engine's column-lane path, over inputs
// whose pad bytes hold garbage, so the fused R = 1 dispatch and the scalar
// fallback it leaves to other layers (R = 2, stride 2, a width-changing
// valid padding) are both pinned against forwardRef.
func TestSparseConvMatchesNaive(t *testing.T) {
	// Depthwise layers by the path their padded run takes: fused, or the
	// scalar walk for R = 2 alone, for stride 2, or for a width change.
	var fused, wideR, strided, narrowed int
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := 5 + rng.Intn(8)
		w := 4 + rng.Intn(8)
		cin := 1 + rng.Intn(4)
		stride := 1 + rng.Intn(2)
		kh := 1 + rng.Intn(3)
		kw := 1 + rng.Intn(3)
		pad := rng.Intn(2)
		density := 0.1 + rng.Float64()*0.8
		var q *QConv
		if seed%2 == 0 {
			cout := 1 + rng.Intn(6)
			r := 1 + rng.Intn(8)
			q = &QConv{
				Kind: kindStandard,
				Cin:  int32(cin), Cout: int32(cout), KH: int32(kh), KW: int32(kw),
				Stride: int32(stride), PadH: int32(pad), PadW: int32(pad), R: int32(r),
				WbPacked: randTernaryPacked(rng, r*cin*kh*kw, density),
				WcPacked: randTernaryPacked(rng, cout*r, density),
				HidMul:   randMults(rng, r),
				OutMul:   randMults(rng, cout),
				OutBias:  make([]int32, cout),
				ReLU:     seed%4 == 0,
			}
		} else {
			r := 1 + rng.Intn(2)
			q = &QConv{
				Kind: kindDepthwise,
				Cin:  int32(cin), Cout: int32(cin), KH: int32(kh), KW: int32(kw),
				Stride: int32(stride), PadH: int32(pad), PadW: int32(pad), R: int32(r),
				WbPacked: randTernaryPacked(rng, cin*r*kh*kw, density),
				WcPacked: randTernaryPacked(rng, cin*r, density),
				HidMul:   randMults(rng, cin*r),
				OutMul:   randMults(rng, cin),
				OutBias:  make([]int32, cin),
			}
		}
		for i := range q.OutBias {
			q.OutBias[i] = int32(rng.Intn(9) - 4)
		}
		if kh > h+2*pad || kw > w+2*pad {
			continue // kernel larger than padded input
		}
		oh, ow := q.outSize(h, w)
		if oh < 1 || ow < 1 {
			continue
		}
		x := make([]int8, cin*h*w)
		for i := range x {
			x[i] = int8(rng.Intn(255) - 127)
		}
		q.compileKernels()
		q.compileDWCol(h, w)
		a := arenaForConv(q, h, w)
		nOut := oh * ow
		got := make([]int8, int(q.Cout)*nOut)
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			want, _, _ := q.forwardRef(x, h, w, pol)
			runConv(a, q, x, got, h, w, pol, h*w, nOut)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d kind %q pol %v: sparse[%d]=%d naive=%d", seed, q.Kind, pol, i, got[i], want[i])
				}
			}
			if q.Kind != kindDepthwise {
				continue
			}
			inP, outP := pad8(h*w), pad8(nOut)
			if pol == PolicyMixed {
				switch {
				case q.dwFused(outP):
					fused++
				case stride == 2:
					strided++
				case ow != w:
					narrowed++
				case q.R == 2:
					wideR++
				}
			}
			xp := make([]int8, cin*inP)
			for i := range xp {
				xp[i] = int8(rng.Intn(256) - 128)
			}
			for ch := 0; ch < cin; ch++ {
				copy(xp[ch*inP:], x[ch*h*w:(ch+1)*h*w])
			}
			gotP := make([]int8, cin*outP)
			runConv(a, q, xp, gotP, h, w, pol, inP, outP)
			for ch := 0; ch < cin; ch++ {
				for j := 0; j < nOut; j++ {
					if g, n := gotP[ch*outP+j], want[ch*nOut+j]; g != n {
						t.Fatalf("seed %d pol %v (r=%d stride=%d k=%dx%d pad=%d, fused %v): padded ch %d [%d]=%d naive=%d",
							seed, pol, q.R, stride, kh, kw, pad, q.dwFused(outP), ch, j, g, n)
					}
				}
			}
		}
	}
	if fused == 0 || wideR == 0 || strided == 0 || narrowed == 0 {
		t.Fatalf("sweep missed a depthwise path: %d fused layers; scalar walk for %d R = 2, %d stride-2 and %d width-changing layers",
			fused, wideR, strided, narrowed)
	}
}

// TestSparseDenseMatchesNaive does the same for QDense.
func TestSparseDenseMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		in := 1 + rng.Intn(40)
		out := 1 + rng.Intn(16)
		r := 1 + rng.Intn(12)
		q := &QDense{
			In: int32(in), Out: int32(out), R: int32(r),
			WbPacked: randTernaryPacked(rng, r*in, 0.1+rng.Float64()*0.8),
			WcPacked: randTernaryPacked(rng, out*r, 0.1+rng.Float64()*0.8),
			HidMul:   randMults(rng, r),
			OutMul:   NewMult(0.3 + rng.Float64()),
		}
		x := make([]int8, in)
		for i := range x {
			x[i] = int8(rng.Intn(255) - 127)
		}
		want := q.Forward(x)
		q.compileKernels()
		got := make([]int16, out)
		hid := make([]int16, r)
		q.forwardInto(x, got, hid)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: sparse[%d]=%d naive=%d", seed, i, got[i], want[i])
			}
		}
	}
}

// randSmallEngine hand-builds a random, valid engine: standard conv →
// depthwise → pointwise chain with random dims, random pool, random tree.
func randSmallEngine(rng *rand.Rand) *Engine {
	frames := 8 + rng.Intn(8)
	coeffs := 6 + rng.Intn(6)
	c1 := 2 + rng.Intn(4)
	r1 := 1 + rng.Intn(6)
	density := 0.15 + rng.Float64()*0.6
	ternary := func(n int) []byte { return randTernaryPacked(rng, n, density) }
	biases := func(n int) []int32 {
		bs := make([]int32, n)
		for i := range bs {
			bs[i] = int32(rng.Intn(5) - 2)
		}
		return bs
	}
	conv1 := &QConv{
		Kind: kindStandard,
		Cin:  1, Cout: int32(c1), KH: 3, KW: 3,
		Stride: 1, PadH: 1, PadW: 1, R: int32(r1),
		WbPacked: ternary(r1 * 9),
		WcPacked: ternary(c1 * r1),
		HidMul:   randMults(rng, r1),
		OutMul:   randMults(rng, c1),
		OutBias:  biases(c1),
		ReLU:     true,
	}
	dw := &QConv{
		Kind: kindDepthwise,
		Cin:  int32(c1), Cout: int32(c1), KH: 3, KW: 3,
		Stride: 1, PadH: 1, PadW: 1, R: 1,
		WbPacked: ternary(c1 * 9),
		WcPacked: ternary(c1),
		HidMul:   randMults(rng, c1),
		OutMul:   randMults(rng, c1),
		OutBias:  biases(c1),
	}
	c2 := 2 + rng.Intn(4)
	r2 := 1 + rng.Intn(6)
	pw := &QConv{
		Kind: kindStandard,
		Cin:  int32(c1), Cout: int32(c2), KH: 1, KW: 1,
		Stride: 1, PadH: 0, PadW: 0, R: int32(r2),
		WbPacked: ternary(r2 * c1),
		WcPacked: ternary(c2 * r2),
		HidMul:   randMults(rng, r2),
		OutMul:   randMults(rng, c2),
		OutBias:  biases(c2),
		ReLU:     rng.Intn(2) == 0,
	}
	poolK := 1 + rng.Intn(2)
	ph := (frames-poolK)/poolK + 1
	pw2 := (coeffs-poolK)/poolK + 1
	flat := c2 * ph * pw2
	proj := 3 + rng.Intn(6)
	classes := 3 + rng.Intn(4)
	depth := rng.Intn(3)
	dense := func(in, out, r int) *QDense {
		return &QDense{
			In: int32(in), Out: int32(out), R: int32(r),
			WbPacked: ternary(r * in),
			WcPacked: ternary(out * r),
			HidMul:   randMults(rng, r),
			OutMul:   NewMult(0.5),
			OutScale: 0.01,
		}
	}
	tree := &QTree{
		Depth: int32(depth), ProjDim: int32(proj), NumClasses: int32(classes),
		Z:       dense(flat, proj, proj),
		ZQ:      NewMult(0.5),
		ZScale:  0.02,
		TanhLUT: BuildTanhLUT(1e-3, 1),
		WScale:  0.01,
	}
	nInt := (1 << depth) - 1
	for k := 0; k < 2*nInt+1; k++ {
		tree.W = append(tree.W, dense(proj, classes, classes))
		tree.V = append(tree.V, dense(proj, classes, classes))
	}
	tree.Theta = make([]int16, nInt*proj)
	for i := range tree.Theta {
		tree.Theta[i] = int16(rng.Intn(65536) - 32768)
	}
	return &Engine{
		Frames: int32(frames), Coeffs: int32(coeffs), InScale: 0.05,
		Convs: []*QConv{conv1, dw, pw},
		PoolK: int32(poolK), PoolS: int32(poolK),
		Tree: tree,
	}
}

// TestEngineSparseMatchesNaiveRandomized runs whole randomized engines
// through both pipelines and requires bit-identical scores.
func TestEngineSparseMatchesNaiveRandomized(t *testing.T) {
	const engines = 25
	varying := 0
	for seed := int64(0); seed < engines; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		e := randSmallEngine(rng)
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: random engine invalid: %v", seed, err)
		}
		var spread scoreSpread
		for trial := 0; trial < 3; trial++ {
			x := make([]float32, e.Frames*e.Coeffs)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			wantSc, wantCls := e.inferNaive(x, PolicyMixed)
			spread.add(wantSc)
			gotSc, gotCls := e.Infer(x)
			if gotCls != wantCls {
				t.Fatalf("seed %d trial %d: class %d vs naive %d", seed, trial, gotCls, wantCls)
			}
			for j := range wantSc {
				if gotSc[j] != wantSc[j] {
					t.Fatalf("seed %d trial %d: score[%d]=%d vs naive %d", seed, trial, j, gotSc[j], wantSc[j])
				}
			}
		}
		if spread.varies {
			varying++
		}
	}
	checkVarying(t, varying, engines)
}

// TestSyntheticEngineSparseMatchesNaive pins the paper deployment shape
// across the densities the index-run walk must serve — from sparser than any
// trained model (0.05) through the benchmark's 0.35 to fully dense (1.0) —
// under both policies: single-frame Infer, a 13-frame batch (one full
// chunk and a ragged one) and a 30-hop InferHop stream must all match the
// NaiveInt oracle bit for bit.
func TestSyntheticEngineSparseMatchesNaive(t *testing.T) {
	const batch = 13
	const hop, hops = 12, 30
	check := func(what string, got []int32, gotCls int, x []float32, e *Engine) {
		t.Helper()
		want, wantCls := e.NaiveInt(x)
		if gotCls != wantCls {
			t.Fatalf("%s: class %d vs naive %d", what, gotCls, wantCls)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: score[%d] %d vs naive %d", what, j, got[j], want[j])
			}
		}
	}
	for _, density := range []float64{0.05, 0.35, 0.75, 1.0} {
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e := SyntheticEngine(7, density)
			e.Policy = pol
			rng := rand.New(rand.NewSource(7))
			tag := fmt.Sprintf("density %.2f pol %v", density, pol)

			xs := make([][]float32, batch)
			for i := range xs {
				xs[i] = make([]float32, e.Frames*e.Coeffs)
				for j := range xs[i] {
					xs[i][j] = float32(rng.NormFloat64())
				}
			}
			for i := 0; i < 3; i++ {
				sc, cls := e.Infer(xs[i])
				check(fmt.Sprintf("%s: Infer frame %d", tag, i), sc, cls, xs[i], e)
			}
			for i, r := range e.InferBatch(xs) {
				if r.Err != nil {
					t.Fatalf("%s: InferBatch frame %d: %v", tag, i, r.Err)
				}
				check(fmt.Sprintf("%s: InferBatch frame %d", tag, i), r.Scores, r.Class, xs[i], e)
			}

			s := newHopStream(rng, int(e.Frames), int(e.Coeffs), hop, hops)
			hs := e.NewHopState()
			for i := 0; i < hops; i++ {
				nNew := hop
				if i == 0 {
					nNew = int(e.Frames)
				}
				sc, cls := e.InferHop(hs, s.window(i), nNew)
				check(fmt.Sprintf("%s: InferHop %d", tag, i), sc, cls, s.window(i), e)
			}
			hs.Release()
		}
	}
}

// TestEngineInferZeroAllocs pins the headline property: steady-state Infer
// and InferSafe on the default ST-HybridNet shape allocate nothing.
func TestEngineInferZeroAllocs(t *testing.T) {
	e := SyntheticEngine(1, 0.35)
	x := make([]float32, e.Frames*e.Coeffs)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	e.Infer(x) // warm up: kernel compile + arena build
	if allocs := testing.AllocsPerRun(50, func() { e.Infer(x) }); allocs != 0 {
		t.Fatalf("Infer allocates %.1f objects/op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { e.InferSafe(x) }); allocs != 0 {
		t.Fatalf("InferSafe allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// bigConvEngine builds a single-conv engine on a 64×64 input, far larger
// than any paper-shape stage.
func bigConvEngine(seed int64) *Engine {
	rng := rand.New(rand.NewSource(seed))
	const h, w = 64, 64
	const cout, r = 32, 64
	ternary := func(n int) []byte { return randTernaryPacked(rng, n, 0.5) }
	conv := &QConv{
		Kind: kindStandard,
		Cin:  1, Cout: cout, KH: 5, KW: 5,
		Stride: 1, PadH: 2, PadW: 2, R: r,
		WbPacked: ternary(r * 25),
		WcPacked: ternary(cout * r),
		HidMul:   randMults(rng, r),
		OutMul:   randMults(rng, cout),
		OutBias:  make([]int32, cout),
		ReLU:     true,
	}
	dense := func(in, out, rr int) *QDense {
		return &QDense{
			In: int32(in), Out: int32(out), R: int32(rr),
			WbPacked: ternary(rr * in),
			WcPacked: ternary(out * rr),
			HidMul:   randMults(rng, rr),
			OutMul:   NewMult(0.5),
			OutScale: 0.01,
		}
	}
	tree := &QTree{
		Depth: 0, ProjDim: 8, NumClasses: 4,
		Z:       dense(cout, 8, 8),
		ZQ:      NewMult(0.5),
		ZScale:  0.02,
		TanhLUT: BuildTanhLUT(1e-3, 1),
		WScale:  0.01,
		W:       []*QDense{dense(8, 4, 4)},
		V:       []*QDense{dense(8, 4, 4)},
	}
	return &Engine{
		Frames: h, Coeffs: w, InScale: 0.05,
		Convs: []*QConv{conv},
		PoolK: h, PoolS: h, // global pool to 1×1
		Tree: tree,
	}
}

// TestLargeConvMatchesNaive checks that a stage far larger than the paper
// shape, run through the one accumulator row, agrees with the naive
// reference.
func TestLargeConvMatchesNaive(t *testing.T) {
	e := bigConvEngine(3)
	if err := e.Validate(); err != nil {
		t.Fatalf("big engine invalid: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	wantSc, wantCls := e.inferNaive(x, PolicyMixed)
	gotSc, gotCls := e.Infer(x)
	if gotCls != wantCls {
		t.Fatalf("class %d vs naive %d", gotCls, wantCls)
	}
	for j := range wantSc {
		if gotSc[j] != wantSc[j] {
			t.Fatalf("score[%d] %d vs naive %d", j, gotSc[j], wantSc[j])
		}
	}
	// Repeat runs reuse the same arena.
	for i := 0; i < 3; i++ {
		sc, cls := e.Infer(x)
		if cls != wantCls || sc[0] != wantSc[0] {
			t.Fatalf("run %d diverged", i)
		}
	}
}

// TestInferBatchFaultIsolation: a wrong-length frame fails alone, the rest
// of the batch still classifies.
func TestInferBatchFaultIsolation(t *testing.T) {
	e := SyntheticEngine(8, 0.3)
	good := make([]float32, e.Frames*e.Coeffs)
	xs := [][]float32{good, make([]float32, 7), good, nil}
	res := e.InferBatch(xs)
	for _, i := range []int{1, 3} {
		if res[i].Err == nil || !errors.Is(res[i].Err, ErrShapeMismatch) {
			t.Fatalf("frame %d: err %v, want ErrShapeMismatch", i, res[i].Err)
		}
		if res[i].Class != -1 {
			t.Fatalf("frame %d: class %d, want -1", i, res[i].Class)
		}
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].Class < 0 {
			t.Fatalf("frame %d: err %v class %d", i, res[i].Err, res[i].Class)
		}
	}
	if len(e.InferBatch(nil)) != 0 {
		t.Fatal("empty batch must return empty results")
	}
	if r := e.InferBatch([][]float32{good}); len(r) != 1 || r[0].Err != nil {
		t.Fatal("single-frame batch failed")
	}
}

// TestInferBatchCappedMatchesUncapped checks that a worker ceiling changes
// scheduling only, never results: serial (cap 1) and default fan-out agree
// frame by frame, including on faulty frames.
func TestInferBatchCappedMatchesUncapped(t *testing.T) {
	e := SyntheticEngine(11, 0.3)
	rng := rand.New(rand.NewSource(12))
	const n = 9
	xs := make([][]float32, n)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	xs[4] = xs[4][:7] // one corrupt frame stays corrupt at every cap
	want := e.InferBatch(xs)
	for _, cap := range []int{1, 2, 0, -3} {
		res := e.InferBatchCapped(xs, cap)
		for i := range want {
			if (want[i].Err == nil) != (res[i].Err == nil) || want[i].Class != res[i].Class {
				t.Fatalf("cap %d frame %d: got (%v,%d), want (%v,%d)",
					cap, i, res[i].Err, res[i].Class, want[i].Err, want[i].Class)
			}
			for j := range want[i].Scores {
				if res[i].Scores[j] != want[i].Scores[j] {
					t.Fatalf("cap %d frame %d: score[%d] diverged", cap, i, j)
				}
			}
		}
	}
}
