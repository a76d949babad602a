package deploy

import (
	"fmt"
	"math/rand"
)

// SyntheticEngine builds a paper-scale ST-HybridNet-shaped engine (49×10
// MFCC input, Conv 10×4/2 to 64 channels with r=48, two depthwise-separable
// blocks, 5×5 pool, depth-2 Bonsai tree over a 24-dim projection of 320
// features, 12 classes) with seeded random ternary weights at the given
// nonzero density. It needs no training, so benchmarks and load tests can
// construct the exact deployment shape in microseconds; the weights are
// random, so only its cost profile — never its accuracy — is meaningful.
// density is clamped to [0.05, 1]. Training leaves more: TWN's threshold
// Δ = 0.7·E|w| (strassen.TernaryThresholdFactor) keeps 2·(1−Φ(0.7·√(2/π)))
// ≈ 58% of Gaussian weights, and a trained width-1.0 engine measures 0.588.
// Benchmarks keep 0.35 because it is the fixture behind kwsperf and every
// committed bench row, so changing it is a benchmark change.
func SyntheticEngine(seed int64, density float64) *Engine {
	if density < 0.05 {
		density = 0.05
	}
	if density > 1 {
		density = 1
	}
	rng := rand.New(rand.NewSource(seed))
	ternary := func(n int) []byte {
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
	mults := func(n int, lo, hi float64) []Mult {
		ms := make([]Mult, n)
		for i := range ms {
			ms[i] = NewMult(lo + rng.Float64()*(hi-lo))
		}
		return ms
	}
	biases := func(n int) []int32 {
		bs := make([]int32, n)
		for i := range bs {
			bs[i] = int32(rng.Intn(7) - 3)
		}
		return bs
	}
	stdConv := func(cin, cout, kh, kw, stride, padH, padW, r int32) *QConv {
		return &QConv{
			Kind: kindStandard,
			Cin:  cin, Cout: cout, KH: kh, KW: kw,
			Stride: stride, PadH: padH, PadW: padW, R: r,
			WbPacked: ternary(int(r * cin * kh * kw)),
			WcPacked: ternary(int(cout * r)),
			HidMul:   mults(int(r), 0.005, 0.02),
			OutMul:   mults(int(cout), 0.1, 0.9),
			OutBias:  biases(int(cout)),
			ReLU:     true,
			InScale:  0.05, HidScale: 0.001, OutScale: 0.02,
		}
	}
	dwConv := func(c, rPerCh int32) *QConv {
		return &QConv{
			Kind: kindDepthwise,
			Cin:  c, Cout: c, KH: 3, KW: 3,
			Stride: 1, PadH: 1, PadW: 1, R: rPerCh,
			WbPacked: ternary(int(c * rPerCh * 9)),
			WcPacked: ternary(int(c * rPerCh)),
			HidMul:   mults(int(c*rPerCh), 0.005, 0.02),
			OutMul:   mults(int(c), 0.1, 0.9),
			OutBias:  biases(int(c)),
			ReLU:     true,
			InScale:  0.02, HidScale: 0.001, OutScale: 0.02,
		}
	}
	dense := func(in, out, r int32) *QDense {
		return &QDense{
			In: in, Out: out, R: r,
			WbPacked: ternary(int(r * in)),
			WcPacked: ternary(int(out * r)),
			HidMul:   mults(int(r), 0.005, 0.02),
			OutMul:   NewMult(0.5),
			OutScale: 0.01,
		}
	}

	const c, r = 64, 48 // paper scale: 64 channels, r = 0.75·cout
	const projDim, classes, depth = 24, 12, 2
	tree := &QTree{
		Depth: depth, ProjDim: projDim, NumClasses: classes,
		Z:       dense(c*5, projDim, projDim), // pool output: 64×5×1 → 320
		ZQ:      NewMult(0.5),
		ZScale:  0.02,
		TanhLUT: BuildTanhLUT(1e-3, 1),
		WScale:  0.01,
	}
	nNodes := 2*((1<<depth)-1) + 1
	for k := 0; k < nNodes; k++ {
		tree.W = append(tree.W, dense(projDim, classes, classes))
		tree.V = append(tree.V, dense(projDim, classes, classes))
	}
	nInt := (1 << depth) - 1
	tree.Theta = make([]int16, nInt*projDim)
	for i := range tree.Theta {
		tree.Theta[i] = int16(rng.Intn(65536) - 32768)
	}

	e := &Engine{
		Frames: 49, Coeffs: 10, InScale: 0.05,
		Convs: []*QConv{
			stdConv(1, c, 10, 4, 2, 5, 1, r), // conv1: 49×10 → 25×5
			dwConv(c, 1),                     // ds1.dw
			stdConv(c, c, 1, 1, 1, 0, 0, r),  // ds1.pw
			dwConv(c, 1),                     // ds2.dw
			stdConv(c, c, 1, 1, 1, 0, 0, r),  // ds2.pw
		},
		PoolK: 5, PoolS: 5,
		Tree: tree,
	}
	e.Calib = e.calibTable()
	if err := e.Validate(); err != nil {
		panic(fmt.Sprintf("deploy: SyntheticEngine built an invalid engine: %v", err))
	}
	return e
}
