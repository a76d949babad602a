// Benchmark harness: one benchmark per paper table and figure, plus kernel
// micro-benchmarks. Table benchmarks run the full experiment generator
// (training included) at a reduced scale; cost columns inside them are
// computed at paper scale regardless, so each run re-derives the paper's
// muls/adds/ops/model-size numbers. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/exp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/speechcmd"
	"repro/internal/strassen"
	"repro/internal/tensor"
)

// benchScale keeps full-table benchmarks in the tens of seconds.
var benchScale = exp.Scale{WidthMult: 0.12, SamplesPerCls: 16, Epochs: 6, Seed: 1}

func benchTable(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := exp.NewContext(benchScale, nil)
		tab, err := exp.Generate(c, n)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchTable(b, 1) }
func BenchmarkTable2(b *testing.B) { benchTable(b, 2) }
func BenchmarkTable3(b *testing.B) { benchTable(b, 3) }
func BenchmarkTable4(b *testing.B) { benchTable(b, 4) }
func BenchmarkTable5(b *testing.B) { benchTable(b, 5) }
func BenchmarkTable6(b *testing.B) { benchTable(b, 6) }
func BenchmarkTable7(b *testing.B) { benchTable(b, 7) }
func BenchmarkTable8(b *testing.B) { benchTable(b, 8) }

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := exp.NewContext(benchScale, nil)
		if tabs := exp.Ablations(c); len(tabs) != 3 {
			b.Fatal("expected 3 ablation tables")
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := exp.Figure1(); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// --- kernel micro-benchmarks ---

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(128, 128).Rand(rng, 1)
	y := tensor.New(128, 128).Rand(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	img := tensor.New(64, 25, 5).Rand(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2Col(img, 3, 3, 1, 1, 1)
	}
}

func BenchmarkMFCC(b *testing.B) {
	m := dsp.NewMFCC(dsp.DefaultMFCCConfig(4000))
	wave := make([]float64, 4000)
	rng := rand.New(rand.NewSource(3))
	for i := range wave {
		wave[i] = rng.NormFloat64() * 0.1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute(wave)
	}
}

func BenchmarkCorpusSample(b *testing.B) {
	cfg := speechcmd.DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	m := dsp.NewMFCC(dsp.DefaultMFCCConfig(cfg.SampleRate))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Compute(speechcmd.SynthesizeUtterance("yes", cfg, rng))
	}
}

// inference benchmarks at paper scale: the latency ordering should mirror
// the paper's op counts (ST-HybridNet < DS-CNN < ST-DS-CNN).

func benchInference(b *testing.B, m nn.Layer) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, models.InputDim).Rand(rng, 1)
	m.Forward(x, false) // warm up internal buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func BenchmarkInferenceDSCNN(b *testing.B) {
	benchInference(b, models.NewDSCNN(12, 1, rand.New(rand.NewSource(6))))
}

func BenchmarkInferenceSTDSCNN(b *testing.B) {
	m := models.NewSTDSCNN(12, 1, 0.75, rand.New(rand.NewSource(6)))
	strassen.SetModeAll(m, strassen.Fixed)
	benchInference(b, m)
}

func BenchmarkInferenceHybrid(b *testing.B) {
	cfg := core.DefaultConfig(12)
	cfg.Strassen = false
	benchInference(b, core.New(cfg, rand.New(rand.NewSource(6))))
}

func BenchmarkInferenceSTHybrid(b *testing.B) {
	h := core.New(core.DefaultConfig(12), rand.New(rand.NewSource(6)))
	strassen.SetModeAll(h, strassen.Fixed)
	benchInference(b, h)
}

// --- packed engine benchmarks ---
//
// The deployment engine at the exact paper shape (49×10 MFCC → 64-ch
// ST-HybridNet → depth-2 Bonsai, 12 classes). BenchmarkEngineInfer must
// report 0 allocs/op — that regression gate is also pinned by
// TestEngineInferZeroAllocs. cmd/kws-bench runs the same three paths and
// persists the numbers to BENCH_engine.json.

func benchEngineInput(e *deploy.Engine, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	return x
}

func BenchmarkEngineInferNaive(b *testing.B) {
	e := deploy.SyntheticEngine(9, 0.35)
	x := benchEngineInput(e, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NaiveInt(x)
	}
}

func BenchmarkEngineInfer(b *testing.B) {
	e := deploy.SyntheticEngine(9, 0.35)
	x := benchEngineInput(e, 10)
	e.Infer(x) // warm up: kernel compile + arena build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Infer(x)
	}
}

// BenchmarkEngineInferFloat is the float32 reference simulation — the
// baseline the integer policies are measured against in kws-bench.
func BenchmarkEngineInferFloat(b *testing.B) {
	e := deploy.SyntheticEngine(9, 0.35)
	x := benchEngineInput(e, 10)
	e.InferFloat(x) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.InferFloat(x)
	}
}

// BenchmarkEngineInferMixed pins the word-packed integer path at the
// paper's mixed 8/16-bit activation policy (the Infer default).
func BenchmarkEngineInferMixed(b *testing.B) {
	e := deploy.SyntheticEngine(9, 0.35)
	e.Policy = deploy.PolicyMixed
	x := benchEngineInput(e, 10)
	e.Infer(x) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Infer(x)
	}
}

// BenchmarkEngineInferInt8 pins the fully-8-bit policy: both conv stages
// run the word-packed byte-lane kernels.
func BenchmarkEngineInferInt8(b *testing.B) {
	e := deploy.SyntheticEngine(9, 0.35)
	e.Policy = deploy.PolicyInt8
	x := benchEngineInput(e, 10)
	e.Infer(x) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Infer(x)
	}
}

// benchEngineHop drives the incremental hop path at the default 250 ms hop
// (12 stride-aligned frames of the 49-frame window) over a long strip of
// overlapping windows — the steady-state streaming-session shape. Must
// report 0 allocs/op (pinned by TestInferHopZeroAllocs and gated in ci.sh);
// kws-bench gates its speedup over the full-window single-frame path.
func benchEngineHop(b *testing.B, pol deploy.Policy) {
	const hop = 12
	const hops = 512
	e := deploy.SyntheticEngine(9, 0.35)
	e.Policy = pol
	rng := rand.New(rand.NewSource(10))
	strip := make([]float32, (int(e.Frames)+hop*hops)*int(e.Coeffs))
	for i := range strip {
		strip[i] = float32(rng.NormFloat64())
	}
	window := func(i int) []float32 {
		return strip[i*hop*int(e.Coeffs):][:int(e.Frames)*int(e.Coeffs)]
	}
	hs := e.NewHopState()
	defer hs.Release()
	e.InferHop(hs, window(0), int(e.Frames)) // warm up: cold full recompute
	i := 1
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i >= hops {
			// The strip loops: re-seed the cache outside the timed cost of a
			// steady-state hop as rarely as the strip allows (1/511 hops).
			i = 1
			e.InferHop(hs, window(0), int(e.Frames))
		}
		e.InferHop(hs, window(i), hop)
		i++
	}
}

func BenchmarkEngineInferHopMixed(b *testing.B) { benchEngineHop(b, deploy.PolicyMixed) }
func BenchmarkEngineInferHopInt8(b *testing.B)  { benchEngineHop(b, deploy.PolicyInt8) }

func BenchmarkEngineInferBatch(b *testing.B) {
	const batch = 64
	e := deploy.SyntheticEngine(9, 0.35)
	xs := make([][]float32, batch)
	for i := range xs {
		xs[i] = benchEngineInput(e, int64(11+i))
	}
	e.InferBatch(xs[:1]) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range e.InferBatch(xs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// benchEngineBatch drives the batch path at one policy with a reused result
// slice (InferBatchInto), the steady-state serving shape: it must report 0
// allocs/op — pinned by TestInferBatchZeroAllocs and gated in ci.sh — and,
// since every frame runs Infer's pipeline, its ns/frame must stay within
// 1.5x of the single-frame ns/op above (gated by kws-bench).
func benchEngineBatch(b *testing.B, pol deploy.Policy) {
	const batch = 64
	e := deploy.SyntheticEngine(9, 0.35)
	e.Policy = pol
	xs := make([][]float32, batch)
	for i := range xs {
		xs[i] = benchEngineInput(e, int64(11+i))
	}
	dst := e.InferBatchInto(nil, xs) // warm up: compile, pooled arena, result storage
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.InferBatchInto(dst, xs)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/frame")
	for _, r := range dst {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkEngineInferBatchMixed(b *testing.B) { benchEngineBatch(b, deploy.PolicyMixed) }
func BenchmarkEngineInferBatchInt8(b *testing.B)  { benchEngineBatch(b, deploy.PolicyInt8) }

func BenchmarkTrainStepSTHybrid(b *testing.B) {
	cfg := core.DefaultConfig(12)
	cfg.WidthMult = 0.25
	h := core.New(cfg, rand.New(rand.NewSource(7)))
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(20, models.InputDim).Rand(rng, 1)
	g := tensor.New(20, 12).Rand(rng, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(h)
		out := h.Forward(x, true)
		_ = out
		h.Backward(g)
	}
}
