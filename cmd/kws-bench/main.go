// Command kws-bench measures the repository's two hot paths and writes the
// numbers to machine-readable JSON files, so perf regressions show up as a
// diff rather than a feeling.
//
// Engine mode (default) times the inference paths over the same synthetic
// ST-HybridNet engine (see deploy.SyntheticEngine), one engine per
// activation policy (the fully-8-bit one from Engine.WithPolicy, since a
// policy is fixed when an engine compiles): the scalar oracle
// (NaiveInt), the float32 reference simulation (InferFloat — the
// EngineInfer row, the baseline the integer policies are measured
// against), the word-packed integer path at the mixed 8/16-bit and
// fully-8-bit activation policies (Infer), the batch path per policy
// (EngineInferBatchMixed / EngineInferBatchInt8: InferBatchInto, every
// frame through Infer's single-frame pipeline on the calling goroutine;
// EngineInferBatchFloat, serial per-frame InferFloat over the same batch,
// is the float baseline) and the incremental hop path per policy (InferHop,
// with its paired speedup over full-window Infer) next to the whole
// streaming per-hop pipeline. It also records the kernels the standard-conv
// rows ran (row_walk: the AVX2 assembly walk and requant rows, or the
// portable Go walk and requant loops — every integer timing depends on it)
// and the kernels the MFCC FFT ran (fft_kernel, which the streaming rows
// depend on), the measured weight density, the model file size, and the
// resident weight bytes and activation scratch footprints of the engine at
// each policy.
// Parity cross-checks: integer/float on 1000 random frames, 1000 frames of
// batch output bit-exact against the scalar NaiveInt oracle under both
// policies, the same NaiveInt oracle against a telemetry-attached engine
// (single-frame and batch) — attaching an observer must not change a bit —
// and 1000 consecutive hops against full-window Infer.
//
// Train mode (-train) measures training throughput on the paper-shape
// hybrid: samples/sec and ns/step for the serial trainer versus the
// data-parallel trainer at 1/2/4/8 workers, plus cold- versus warm-cache
// dataset setup through the THFC feature cache.
//
// Serve mode (-serve) drives the multi-session serving core
// (internal/serve) with over a thousand concurrent fault-injected sessions
// sharing one engine, and records sessions sustained, clean sessions lost,
// peak concurrency, hop-latency percentiles and absorbed-fault counts.
//
// Usage:
//
//	kws-bench                         # writes BENCH_engine.json
//	kws-bench -train                  # writes BENCH_train.json
//	kws-bench -serve                  # writes BENCH_serve.json
//	kws-bench -o - -reps 5            # print JSON to stdout, best of 5
//	kws-bench -density 0.2 -batch 32
//
// The engine headline gates, asserted here and in the test suite: the
// integer paths (single-frame, batch and hop) and both streaming pipeline
// hops must run with 0 allocs/op, int8
// Infer must be at least -min-speedup (default 2.5×) faster than the float
// InferFloat baseline and the incremental streaming hop at least
// -min-hop-speedup (default 2.0×) faster than the full-window one (each
// ratio gated on its paired estimate, see pairedRatio, not on the best-of
// rows, which time the two sides minutes apart), Infer must agree
// byte-exactly with InferFloat, all NaiveInt parity checks (batch,
// telemetry-attached) must hold, and — unless -gate-batch=false —
// InferBatchInto over an 8-frame batch must take at most 1.5× the time of
// Infer over the same frames, for both integer policies, on the paired
// median (exit status 1 otherwise). The batch path runs the same per-frame
// pipeline as Infer, so the gate bounds its arena checkout and result-copy
// overhead; the best-of batch rows are recorded, not gated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/speechcmd"
	"repro/internal/telemetry"
	"repro/internal/train"
)

type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerFrame  float64 `json:"ns_per_frame,omitempty"` // batch rows: ns_per_op / batch size
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Schema            string                            `json:"schema"`
	Generated         string                            `json:"generated"`
	GoVersion         string                            `json:"go_version"`
	GOOS              string                            `json:"goos"`
	GOARCH            string                            `json:"goarch"`
	GOMAXPROCS        int                               `json:"gomaxprocs"`
	NumCPU            int                               `json:"num_cpu"`
	RowWalk           string                            `json:"row_walk"`   // row walk and requant the std-conv rows ran: "avx2" or "go"
	FFTKernel         string                            `json:"fft_kernel"` // kernels the MFCC FFT's twiddled stages and split pass ran: "avx2" or "go"
	Shape             string                            `json:"shape"`
	Density           float64                           `json:"density"`
	DensityMeasured   float64                           `json:"density_measured"`
	Seed              int64                             `json:"seed"`
	BatchSize         int                               `json:"batch_size"`
	PairedBatchFrames int                               `json:"batch_frames_paired"` // frames per call of the paired batch gate
	Reps              int                               `json:"reps"`
	ModelFileBytes    int64                             `json:"model_file_bytes"`
	WeightBytes       map[string]int64                  `json:"weight_bytes_resident_by_policy"`
	WeightFootprint   map[string]deploy.WeightFootprint `json:"weight_bytes_by_component_by_policy"`
	ScratchBytesFloat int64                             `json:"scratch_bytes_float"`
	ScratchBytesMixed int64                             `json:"scratch_bytes_mixed"`
	ScratchBytesInt8  int64                             `json:"scratch_bytes_int8"`
	Results           []result                          `json:"results"`
	SpeedupVsNaive    float64                           `json:"speedup_mixed_vs_naive"`
	SpeedupIntVsFloat float64                           `json:"speedup_int8_vs_float"`
	PairedIntVsFloat  ratioStats                        `json:"paired_int8_vs_float"` // gated
	IntFloatParity    bool                              `json:"int_float_parity_1000_frames"`
	BatchParity       bool                              `json:"batch_parity_1000_frames"`
	TelemetryParity   bool                              `json:"telemetry_parity_1000_frames"`
	BatchNsPerFrame   float64                           `json:"batch_ns_per_frame"` // mixed (v2 continuity)
	BatchNsFrameFloat float64                           `json:"batch_ns_per_frame_float"`
	BatchNsFrameMixed float64                           `json:"batch_ns_per_frame_mixed"`
	BatchNsFrameInt8  float64                           `json:"batch_ns_per_frame_int8"`
	PairedBatch       map[string]ratioStats             `json:"paired_batch_vs_single_by_policy"` // gated
	HopFrames         int                               `json:"hop_frames"`                       // new frames per incremental hop
	HopEffectiveMs    int                               `json:"hop_effective_ms"`                 // 250 ms snapped to the 20 ms stride grid
	StreamSampleRate  int                               `json:"stream_sample_rate"`               // rate of the streaming-pipeline rows
	HopParity         bool                              `json:"hop_parity_1000_hops"`             // InferHop == full-window Infer, both policies
	HopEngineSpeedups map[string]ratioStats             `json:"hop_engine_speedup_by_policy"`     // paired, ungated
	SpeedupHopVsFull  float64                           `json:"speedup_hop_vs_full"`              // streaming per-hop pipeline (featurise+infer), best-of rows
	PairedHopVsFull   ratioStats                        `json:"paired_hop_vs_full"`               // same pipeline ratio, paired; gated
	Note              string                            `json:"note,omitempty"`
}

// ratioStats summarises a paired ratio: its median and quartiles over the
// per-pair ratios slow/fast.
type ratioStats struct {
	Pairs  int     `json:"pairs"`
	Burst  int     `json:"burst"` // calls per side per pair
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// Paired-ratio shape: 41 pairs of 60-call bursts per side, a few seconds
// per ratio on the paper shape. The batch gate's calls each run a batch of
// pairedBatchFrames frames, or Infer over the same frames.
const (
	ratioPairs        = 41
	ratioBurst        = 60
	pairedBatchFrames = 8
)

// pairedRatio estimates how much faster fast runs than slow. It times
// ratioPairs pairs of ratioBurst-call bursts in one process, the two sides
// of a pair back to back with the leading side alternating, and summarises
// the per-pair ratios. A host phase (frequency step, noisy neighbour) then
// slows both sides of a pair alike instead of landing on one row of a
// best-of-reps comparison timed minutes apart from the other.
func pairedRatio(slow, fast func()) ratioStats {
	burst := func(f func()) float64 {
		t0 := time.Now()
		for i := 0; i < ratioBurst; i++ {
			f()
		}
		return float64(time.Since(t0))
	}
	for i := 0; i < ratioBurst; i++ { // warm both sides
		slow()
		fast()
	}
	ratios := make([]float64, ratioPairs)
	for p := range ratios {
		var ts, tf float64
		if p%2 == 0 {
			ts = burst(slow)
			tf = burst(fast)
		} else {
			tf = burst(fast)
			ts = burst(slow)
		}
		ratios[p] = ts / tf
	}
	sort.Float64s(ratios)
	q := func(f float64) float64 { return ratios[int(f*float64(len(ratios)-1)+0.5)] }
	return ratioStats{Pairs: ratioPairs, Burst: ratioBurst, Median: q(0.5), Q1: q(0.25), Q3: q(0.75)}
}

// best runs a benchmark reps times and keeps the fastest run — the one
// least disturbed by scheduler noise; allocation counts are identical
// across runs.
func best(reps int, f func(b *testing.B)) result {
	var r testing.BenchmarkResult
	for i := 0; i < reps; i++ {
		br := testing.Benchmark(f)
		if i == 0 || br.NsPerOp() < r.NsPerOp() {
			r = br
		}
	}
	return result{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func writeReport(v any, out string) {
	js, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
	js = append(js, '\n')
	if out == "-" {
		os.Stdout.Write(js)
		return
	}
	if err := os.WriteFile(out, js, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kws-bench: writing report %s: %v\n", out, err)
		os.Exit(1)
	}
}

func main() {
	out := flag.String("o", "", `output file ("-" for stdout; default BENCH_engine.json or BENCH_train.json)`)
	seed := flag.Int64("seed", 9, "synthetic engine weight seed")
	density := flag.Float64("density", 0.35, "ternary nonzero density")
	batch := flag.Int("batch", 64, "frames per InferBatch call")
	gateBatch := flag.Bool("gate-batch", true, "exit nonzero if the paired median of batch over single-frame time per frame exceeds 1.5x")
	minSpeedup := flag.Float64("min-speedup", 2.5, "exit nonzero if the paired median speedup of single-frame int8 Infer over InferFloat falls below this (0 disables)")
	minHopSpeedup := flag.Float64("min-hop-speedup", 2.0, "exit nonzero if the paired median speedup of the incremental over the full-window streaming per-hop pipeline (featurise+infer) falls below this (0 disables)")
	reps := flag.Int("reps", 3, "benchmark repetitions; the fastest is kept")
	trainMode := flag.Bool("train", false, "benchmark training throughput instead of the inference engine")
	serveMode := flag.Bool("serve", false, "benchmark the serving daemon core under concurrent fault-injected sessions")
	serveSessions := flag.Int("serve-sessions", 1200, "concurrent sessions for the serving benchmark")
	serveFaultFrac := flag.Float64("serve-fault-frac", 0.25, "fraction of serving-benchmark sessions fed through the fault injector")
	trainWidth := flag.Float64("train-width", 0.25, "hybrid width multiplier for the training benchmark")
	trainSamples := flag.Int("train-samples", 16, "corpus samples per class for the training benchmark")
	trainEpochs := flag.Int("train-epochs", 1, "epochs per timed training run")
	flag.Parse()

	if *serveMode {
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		benchServe(*out, *seed, *density, *serveSessions, *serveFaultFrac)
		return
	}
	if *trainMode {
		if *out == "" {
			*out = "BENCH_train.json"
		}
		benchTrain(*out, *seed, *trainWidth, *trainSamples, *trainEpochs, *reps)
		return
	}
	if *out == "" {
		*out = "BENCH_engine.json"
	}
	benchEngine(*out, *seed, *density, *batch, *reps, *gateBatch, *minSpeedup, *minHopSpeedup)
}

func benchEngine(out string, seed int64, density float64, batch, reps int, gateBatch bool, minSpeedup, minHopSpeedup float64) {
	// One engine per activation policy: the synthetic engine compiles at
	// the mixed policy, and WithPolicy gives its fully-8-bit twin.
	e := deploy.SyntheticEngine(seed, density)
	e8, err := e.WithPolicy(deploy.PolicyInt8)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
	engines := []struct {
		key, name string // report key, row-name suffix
		e         *deploy.Engine
	}{{"mixed", "Mixed", e}, {"int8", "Int8", e8}}
	rng := rand.New(rand.NewSource(seed + 1))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	xs := make([][]float32, batch)
	for i := range xs {
		f := make([]float32, len(x))
		for j := range f {
			f[j] = float32(rng.NormFloat64())
		}
		xs[i] = f
	}

	rep := report{
		Schema:     "kws-bench/v15",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		RowWalk:    deploy.RowWalk(),
		FFTKernel:  dsp.FFTKernel(),
		Shape: fmt.Sprintf("%dx%d in, %d convs, %d classes",
			e.Frames, e.Coeffs, len(e.Convs), e.Tree.NumClasses),
		Density:           density,
		DensityMeasured:   e.MeasuredDensity(),
		Seed:              seed,
		BatchSize:         batch,
		PairedBatchFrames: pairedBatchFrames,
		Reps:              reps,
		ModelFileBytes:    e.Size(),
		WeightBytes:       map[string]int64{},
		WeightFootprint:   map[string]deploy.WeightFootprint{},
		PairedBatch:       map[string]ratioStats{},
		Note: "schema v15: the activation policy is fixed when an engine compiles, so every " +
			"per-policy row runs on an engine of its own (the int8 one from Engine.WithPolicy); " +
			"weight_bytes_resident_by_policy and weight_bytes_by_component_by_policy replace " +
			"weight_bytes_resident and weight_bytes_by_component, since each engine holds only " +
			"its own policy's requantisers; paired_batch_vs_single_by_policy times " +
			"InferBatchInto over a batch of batch_frames_paired frames against Infer over the " +
			"same frames (41 interleaved pairs of 60-call bursts, median and quartiles per " +
			"policy), and the batch gate reads its median instead of dividing two best-of rows. " +
			"v14 added weight_bytes_by_component (Engine.WeightFootprint, which " +
			"sums to weight_bytes_resident): the ±1 plane masks every row walk decodes, " +
			"which replaced the int32 index runs, the packed 2-bit ternaries, both " +
			"policies' requantisers, biases with the depthwise tables, and the tree's θ " +
			"and tanh LUT. " +
			"v13: one batch row per policy, InferBatchInto running every frame " +
			"on the calling goroutine (the batch worker pool is gone); worker_counts, the " +
			"rows' workers field and cpu_warning are dropped with the GOMAXPROCS sweep. " +
			"v12: StreamHopFull featurises a one-second sample ring in place " +
			"(dsp.MFCC.ComputeRing), as the full-window detector does, and joins the 0-alloc " +
			"gate. v11 adds fft_kernel: the kernels the MFCC FFT's twiddled stages and " +
			"split pass ran (\"avx2\": the amd64 assembly; \"go\": the portable loops), which " +
			"every streaming-pipeline row depends on. " +
			"v10: hop_engine_speedup_by_policy is paired (full-window Infer " +
			"against a warm InferHop over one window strip, 41 interleaved pairs of 60-call " +
			"bursts, median and quartiles per policy; recorded, not gated) instead of a ratio " +
			"of best-of rows, and row_walk \"avx2\" also means the AVX2 requant rows ran. " +
			"v9: batch rows time InferBatch running every frame through Infer's " +
			"single-frame pipeline (the frame-major lane path is gone), and worker_counts " +
			"lists only the counts measured: counts above num_cpu are skipped, since there " +
			"they time scheduling rather than the engine. " +
			"v8 adds row_walk: the ternary row walk every standard-conv row ran " +
			"(\"avx2\": the amd64 assembly walk; \"go\": the portable walk, off amd64, " +
			"without AVX2 or under -tags purego). v7 gates both speedups on paired_* (41 " +
			"interleaved pairs of 60-call bursts in one process, median of per-pair ratios; " +
			"quartiles recorded) instead of the best-of-reps rows, and adds weight_bytes_resident " +
			"(Engine.WeightBytes: packed ternaries, index runs, requantisers, depthwise " +
			"and tree tables). v6 dropped the layout audit (layer_layouts, " +
			"speedup_int8_vs_float_by_layout, EngineInferInt8Forced*) and the float hop " +
			"row with the float key of hop_engine_speedup_by_policy: every ternary row now " +
			"runs the index-run walk and the engine has one integer hop path. v5 carry-overs: EngineInferHop* time the engine's temporal-cache hop " +
			"path (12 new frames per 240 ms hop, 0 allocs), StreamHopFull/" +
			"StreamHopIncremental time the whole per-hop streaming pipeline (MFCC " +
			"featurisation + inference) at 16 kHz, and speedup_hop_vs_full gates that " +
			"pipeline ratio; pad erosion caps the engine-only hop reuse near 1.8x " +
			"(hop_engine_speedup_by_policy). Batch overhead is bounded at 1.5x of " +
			"single-frame; batch rows are per-policy",
	}

	// Footprints per policy (the paper's Table 6 size story), each read
	// from the engine at that policy.
	rep.ScratchBytesFloat = e.FloatScratchBytes()
	rep.ScratchBytesMixed = e.ScratchBytes()
	rep.ScratchBytesInt8 = e8.ScratchBytes()
	for _, pe := range engines {
		rep.WeightBytes[pe.key] = pe.e.WeightBytes()
		rep.WeightFootprint[pe.key] = pe.e.WeightFootprint()
	}

	naive := best(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.NaiveInt(x)
		}
	})
	naive.Name = "EngineInferNaive"
	rep.Results = append(rep.Results, naive)

	e.InferFloat(x) // warm up: float arena build
	flt := best(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.InferFloat(x)
		}
	})
	flt.Name = "EngineInfer"
	rep.Results = append(rep.Results, flt)

	single := map[string]result{}
	for _, pe := range engines {
		pe.e.Infer(x) // warm up: the resident arena
		r := best(reps, loop(func() { pe.e.Infer(x) }))
		r.Name = "EngineInfer" + pe.name
		rep.Results = append(rep.Results, r)
		single[pe.key] = r
	}
	mixed, int8r := single["mixed"], single["int8"]

	// Batch float baseline: serial per-frame InferFloat over the same batch.
	// One row — InferFloat has no batch entry point to scale.
	batFlt := best(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, f := range xs {
				e.InferFloat(f)
			}
		}
	})
	batFlt.Name = "EngineInferBatchFloat"
	batFlt.NsPerFrame = batFlt.NsPerOp / float64(batch)
	rep.Results = append(rep.Results, batFlt)
	rep.BatchNsFrameFloat = batFlt.NsPerFrame

	// The batch path per policy, in the steady-state serving shape: a
	// reused result slice.
	batRows := map[string]result{}
	for _, pe := range engines {
		name := "EngineInferBatch" + pe.name
		dst := pe.e.InferBatchInto(nil, xs) // warm up: pooled arena + result storage
		r := best(reps, loop(func() { dst = pe.e.InferBatchInto(dst, xs) }))
		for _, br := range dst {
			if br.Err != nil {
				fmt.Fprintf(os.Stderr, "kws-bench: %s: %v\n", name, br.Err)
				os.Exit(1)
			}
		}
		r.Name = name
		r.NsPerFrame = r.NsPerOp / float64(batch)
		rep.Results = append(rep.Results, r)
		batRows[pe.key] = r
	}

	// The batch gate, paired per policy: InferBatchInto over a short batch
	// against Infer over the same frames, timed in one phase.
	for _, pe := range engines {
		frames := xs[:min(pairedBatchFrames, len(xs))]
		var dst []deploy.BatchResult
		rep.PairedBatch[pe.key] = pairedRatio(
			func() { dst = pe.e.InferBatchInto(dst, frames) },
			func() {
				for _, f := range frames {
					pe.e.Infer(f)
				}
			})
	}

	// Incremental hop rows (schema v5): the temporal-cache streaming path at
	// the default cadence — 250 ms snapped to the MFCC stride grid is 240 ms,
	// i.e. 12 new frames of the 49-frame window per hop.
	const hopFrames = 12
	rep.HopFrames = hopFrames
	rep.HopEffectiveMs = 240
	hopRows := map[string]result{}
	rep.HopEngineSpeedups = map[string]ratioStats{}
	for _, pe := range engines {
		full, hop, release := engineHopSteps(pe.e, hopFrames)
		r := best(reps, loop(hop))
		r.Name = "EngineInferHop" + pe.name
		rep.Results = append(rep.Results, r)
		hopRows[pe.key] = r
		rep.HopEngineSpeedups[pe.key] = pairedRatio(full, hop)
		release()
	}
	rep.HopParity = hopParityCheck(e, seed+5, 1000, hopFrames) && hopParityCheck(e8, seed+5, 1000, hopFrames)

	// Streaming per-hop pipeline rows: what one hop of a streaming session
	// actually costs — featurisation plus inference. The full-window pipeline
	// re-featurises the whole one-second window (49 FFT/mel/DCT frames at
	// 16 kHz) and re-infers it; the incremental pipeline featurises only the
	// hop's 12 new frames through the streaming frontend and shifts the
	// engine's activation cache. Featurisation dominates the full path, which
	// is why the headline speedup gate lives here rather than on the
	// engine-only ratio (hop_engine_speedup_by_policy), which pad erosion
	// and a cheap full window hold near 1.1–1.3x.
	rep.StreamSampleRate = 16000
	fullHop, incHop, release := streamHopSteps(e, rep.StreamSampleRate, hopFrames)
	streamFull := best(reps, loop(fullHop))
	streamInc := best(reps, loop(incHop))
	streamFull.Name = "StreamHopFull"
	streamInc.Name = "StreamHopIncremental"
	rep.Results = append(rep.Results, streamFull, streamInc)
	rep.SpeedupHopVsFull = streamFull.NsPerOp / streamInc.NsPerOp
	rep.PairedHopVsFull = pairedRatio(fullHop, incHop)
	release()

	// The int8-vs-float gate, paired. Both sides run on the int8 engine:
	// the float simulation's cost does not depend on the policy.
	rep.PairedIntVsFloat = pairedRatio(func() { e8.InferFloat(x) }, func() { e8.Infer(x) })

	rep.SpeedupVsNaive = naive.NsPerOp / mixed.NsPerOp
	rep.SpeedupIntVsFloat = flt.NsPerOp / int8r.NsPerOp
	rep.IntFloatParity = parityCheck(e, seed+2, 1000) && parityCheck(e8, seed+2, 1000)
	rep.BatchParity = batchParityCheck(e, seed+3, 1000, batch) && batchParityCheck(e8, seed+3, 1000, batch)
	rep.TelemetryParity = telemetryParityCheck(e, seed, density, seed+4, 1000, batch) &&
		telemetryParityCheck(e8, seed, density, seed+4, 1000, batch)
	rep.BatchNsFrameMixed = batRows["mixed"].NsPerFrame
	rep.BatchNsFrameInt8 = batRows["int8"].NsPerFrame
	rep.BatchNsPerFrame = rep.BatchNsFrameMixed

	fail := false
	allocRows := []result{mixed, int8r, batRows["mixed"], batRows["int8"],
		hopRows["mixed"], hopRows["int8"], streamFull, streamInc}
	for _, r := range allocRows {
		if r.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: %s allocates %d objects/op, want 0\n", r.Name, r.AllocsPerOp)
			fail = true
		}
	}
	if p := rep.PairedIntVsFloat; minSpeedup > 0 && p.Median < minSpeedup {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: paired int8 speedup median %.2fx (IQR %.2f-%.2f) below the %.2fx gate\n",
			p.Median, p.Q1, p.Q3, minSpeedup)
		fail = true
	}
	if p := rep.PairedHopVsFull; minHopSpeedup > 0 && p.Median < minHopSpeedup {
		fmt.Fprintf(os.Stderr, "kws-bench: REGRESSION: paired streaming hop pipeline speedup median %.2fx (IQR %.2f-%.2f) below the %.2fx gate\n",
			p.Median, p.Q1, p.Q3, minHopSpeedup)
		fail = true
	}
	if !rep.HopParity {
		fmt.Fprintln(os.Stderr, "kws-bench: REGRESSION: InferHop disagrees with full-window Infer")
		fail = true
	}
	if !rep.IntFloatParity {
		fmt.Fprintln(os.Stderr, "kws-bench: REGRESSION: Infer disagrees with the InferFloat simulation")
		fail = true
	}
	if !rep.BatchParity {
		fmt.Fprintln(os.Stderr, "kws-bench: REGRESSION: InferBatch disagrees with the NaiveInt oracle")
		fail = true
	}
	if !rep.TelemetryParity {
		fmt.Fprintln(os.Stderr, "kws-bench: REGRESSION: telemetry-attached engine disagrees with the NaiveInt oracle")
		fail = true
	}
	if gateBatch {
		// InferBatch runs each frame through Infer's pipeline and adds only
		// the arena checkout and the copy into caller-owned scores, so the
		// gate bounds that overhead.
		const batchOverheadTol = 1.5
		for _, pe := range engines {
			if p := rep.PairedBatch[pe.key]; p.Median > batchOverheadTol {
				fmt.Fprintf(os.Stderr,
					"kws-bench: REGRESSION: %s batch over single-frame time per frame, paired median %.2fx (IQR %.2f-%.2f), exceeds %.1fx\n",
					pe.key, p.Median, p.Q1, p.Q3, batchOverheadTol)
				fail = true
			}
		}
	}

	writeReport(rep, out)
	fmt.Printf("kws-bench: naive %.0f ns/op, float %.0f ns/op, mixed %.0f ns/op, int8 %.0f ns/op (%.2fx vs float, paired %.2fx, %d allocs/op), batch mixed %.0f / int8 %.0f ns/frame (paired vs single frame %.2fx / %.2fx), hop mixed %.0f / int8 %.0f ns/hop (paired vs full window %.2fx / %.2fx), stream hop %.0f vs full %.0f ns (%.2fx, paired %.2fx), weights mixed %d / int8 %d B resident (%d B plane masks) -> %s\n",
		naive.NsPerOp, flt.NsPerOp, mixed.NsPerOp, int8r.NsPerOp,
		rep.SpeedupIntVsFloat, rep.PairedIntVsFloat.Median, int8r.AllocsPerOp,
		rep.BatchNsFrameMixed, rep.BatchNsFrameInt8,
		rep.PairedBatch["mixed"].Median, rep.PairedBatch["int8"].Median,
		hopRows["mixed"].NsPerOp, hopRows["int8"].NsPerOp,
		rep.HopEngineSpeedups["mixed"].Median, rep.HopEngineSpeedups["int8"].Median,
		streamInc.NsPerOp, streamFull.NsPerOp, rep.SpeedupHopVsFull, rep.PairedHopVsFull.Median,
		rep.WeightBytes["mixed"], rep.WeightBytes["int8"], rep.WeightFootprint["mixed"].Masks, out)
	if fail {
		os.Exit(1)
	}
}

// engineHopSteps returns one engine hop both ways over the same strip of
// overlapping windows, advanced hopFrames rows per call, as bodies both the
// EngineInferHop* rows and the paired hop_engine_speedup_by_policy time.
// Full: full-window Infer on the next window. Hop: the warm incremental
// InferHop, with its cache re-seeded (a full recompute) only when the strip
// wraps — 1/255 of hops, matching a streaming session that almost never
// discontinues. Both run at the engine's policy when called; release
// returns the hop state.
func engineHopSteps(e *deploy.Engine, hopFrames int) (full, hop, release func()) {
	const hops = 256
	rng := rand.New(rand.NewSource(17))
	coeffs := int(e.Coeffs)
	frames := int(e.Frames)
	strip := make([]float32, (frames+hopFrames*hops)*coeffs)
	for i := range strip {
		strip[i] = float32(rng.NormFloat64())
	}
	window := func(i int) []float32 {
		return strip[i*hopFrames*coeffs:][:frames*coeffs]
	}
	fi := 0
	full = func() {
		e.Infer(window(fi))
		fi = (fi + 1) % hops
	}
	hs := e.NewHopState()
	e.InferHop(hs, window(0), frames) // warm up: cold full recompute
	i := 1
	hop = func() {
		if i >= hops {
			i = 1
			e.InferHop(hs, window(0), frames)
		}
		e.InferHop(hs, window(i), hopFrames)
		i++
	}
	return full, hop, hs.Release
}

// loop turns a one-call body into a benchmark function.
func loop(step func()) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			step()
		}
	}
}

// streamHopSteps returns one hop of the streaming pipeline both ways over
// the same audio strip, as bodies both the best-of rows and the paired gate
// time. Full: write the hop's samples into a one-second ring, featurise the
// whole ring in place (dsp.MFCC.ComputeRing) and run full-window Infer —
// the per-hop work of the non-incremental detector. Incremental: push only
// the hop's samples through the streaming frontend (which featurises just
// the newly completed frames) and run the cached hop path. Both run at the
// engine's policy when called; release returns the hop state.
func streamHopSteps(e *deploy.Engine, rate, hopFrames int) (full, inc, release func()) {
	const hops = 64
	mfccCfg := dsp.DefaultMFCCConfig(rate)
	hopSamples := hopFrames * mfccCfg.Stride()
	rng := rand.New(rand.NewSource(18))
	strip := make([]float64, rate+hopSamples*hops)
	for i := range strip {
		strip[i] = 0.4 * rng.NormFloat64()
	}

	frames := int(e.Frames)
	m := dsp.NewMFCC(mfccCfg)
	ring := make([]float64, rate)
	ringFeat := make([]float32, frames*int(e.Coeffs))
	fi := hops // the first call fills the ring
	full = func() {
		if fi == hops {
			// Strip wrap: refill the ring with the first window, 1/64 of
			// hops.
			fi = 0
			copy(ring, strip[:rate])
		}
		fi++
		end := rate + fi*hopSamples
		for p, r := (end-hopSamples)%rate, strip[end-hopSamples:end]; len(r) > 0; p = 0 {
			r = r[copy(ring[p:], r):]
		}
		m.ComputeRing(ringFeat, ring, end%rate)
		e.Infer(ringFeat)
	}

	fe := dsp.NewFrontend(mfccCfg, frames)
	feat := make([]float32, frames*int(e.Coeffs))
	hs := e.NewHopState()
	seed := func() int {
		fe.Reset()
		hs.Invalidate()
		fe.Push(strip[:rate])
		fe.Window(feat)
		e.InferHop(hs, feat, frames)
		return rate
	}
	pos := seed()
	inc = func() {
		if pos+hopSamples > len(strip) {
			// Strip wrap: re-anchor with a timed full recompute, 1/64 of
			// hops — a conservative penalty on the incremental side.
			pos = seed()
		}
		fe.Push(strip[pos : pos+hopSamples])
		fe.Window(feat)
		e.InferHop(hs, feat, hopFrames)
		pos += hopSamples
	}
	return full, inc, hs.Release
}

// hopParityCheck verifies the incremental headline exactness claim on the
// shipped binary: n consecutive hops through the temporal cache must agree
// byte-for-byte with full-window Infer on the same windows, at the engine's
// policy.
func hopParityCheck(e *deploy.Engine, seed int64, n, hopFrames int) bool {
	rng := rand.New(rand.NewSource(seed))
	coeffs := int(e.Coeffs)
	frames := int(e.Frames)
	strip := make([]float32, (frames+hopFrames*n)*coeffs)
	for i := range strip {
		strip[i] = float32(rng.NormFloat64()) * 2
	}
	hs := e.NewHopState()
	defer hs.Release()
	for i := 0; i < n; i++ {
		w := strip[i*hopFrames*coeffs:][:frames*coeffs]
		nNew := hopFrames
		if i == 0 {
			nNew = frames
		}
		hsc, hcl := e.InferHop(hs, w, nNew)
		wsc, wcl := e.Infer(w)
		if hcl != wcl || !slices.Equal(hsc, wsc) {
			return false
		}
	}
	return true
}

// telemetryParityCheck rebuilds the synthetic engine at the oracle's
// policy, attaches a live telemetry observer, and verifies n frames through
// the observed single-frame path and the observed batch path both agree
// byte-for-byte with the plain engine's scalar NaiveInt oracle. Attaching
// an observer turns on the stage hooks in the engine's one single-frame
// driver; this pins that they change no result on the shipped binary, not
// just the test suite.
func telemetryParityCheck(oracle *deploy.Engine, engSeed int64, density float64, seed int64, n, batch int) bool {
	eObs := deploy.SyntheticEngine(engSeed, density)
	eObs.Policy = oracle.Policy
	eObs.EnableTelemetry(telemetry.NewRegistry(), nil)
	rng := rand.New(rand.NewSource(seed))
	var dst []deploy.BatchResult
	for done := 0; done < n; done += batch {
		xs := make([][]float32, min(batch, n-done))
		want := make([][]int32, len(xs))
		for i := range xs {
			f := make([]float32, eObs.Frames*eObs.Coeffs)
			for j := range f {
				f[j] = float32(rng.NormFloat64()) * 2
			}
			xs[i] = f
			ws, wc := oracle.NaiveInt(f)
			want[i] = append([]int32(nil), ws...)
			if is, ic := eObs.Infer(f); ic != wc || !slices.Equal(is, ws) {
				return false
			}
		}
		dst = eObs.InferBatchInto(dst, xs)
		for i, r := range dst {
			if r.Err != nil || !slices.Equal(r.Scores, want[i]) {
				return false
			}
		}
	}
	return true
}

// batchParityCheck verifies the batch headline exactness claim on the
// shipped binary: n frames pushed through InferBatch (ragged tail
// included) must agree byte-for-byte with the int64 scalar NaiveInt oracle
// at the engine's policy.
func batchParityCheck(e *deploy.Engine, seed int64, n, batch int) bool {
	rng := rand.New(rand.NewSource(seed))
	var dst []deploy.BatchResult
	for done := 0; done < n; done += batch {
		xs := make([][]float32, min(batch, n-done))
		for i := range xs {
			f := make([]float32, e.Frames*e.Coeffs)
			for j := range f {
				f[j] = float32(rng.NormFloat64()) * 2
			}
			xs[i] = f
		}
		dst = e.InferBatchInto(dst, xs)
		for i, r := range dst {
			ns, nc := e.NaiveInt(xs[i])
			if r.Err != nil || r.Class != nc || !slices.Equal(r.Scores, ns) {
				return false
			}
		}
	}
	return true
}

// parityCheck verifies the headline exactness claim on the shipped binary:
// Infer and the InferFloat simulation must agree byte-for-byte on n random
// frames at the engine's policy.
func parityCheck(e *deploy.Engine, seed int64, n int) bool {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float32, e.Frames*e.Coeffs)
	for f := 0; f < n; f++ {
		for i := range x {
			x[i] = float32(rng.NormFloat64()) * 2
		}
		is, ic := e.Infer(x)
		fs, fc := e.InferFloat(x)
		if ic != fc || !slices.Equal(is, fs) {
			return false
		}
	}
	return true
}

// trainResult is one timed training configuration.
type trainResult struct {
	Name          string  `json:"name"`
	Workers       int     `json:"workers"`    // 0 = serial path
	GOMAXPROCS    int     `json:"gomaxprocs"` // procs the row was measured under
	Shards        int     `json:"shards"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	NsPerStep     float64 `json:"ns_per_step"`
	FinalLoss     float64 `json:"final_loss"`
}

// trainReport is the BENCH_train.json schema.
type trainReport struct {
	Schema              string        `json:"schema"`
	Generated           string        `json:"generated"`
	GoVersion           string        `json:"go_version"`
	GOOS                string        `json:"goos"`
	GOARCH              string        `json:"goarch"`
	GOMAXPROCS          int           `json:"gomaxprocs"`
	NumCPU              int           `json:"num_cpu"`
	Model               string        `json:"model"`
	WidthMult           float64       `json:"width_mult"`
	Seed                int64         `json:"seed"`
	SamplesPerClass     int           `json:"samples_per_class"`
	TrainSamples        int           `json:"train_samples"`
	Epochs              int           `json:"epochs"`
	BatchSize           int           `json:"batch_size"`
	Reps                int           `json:"reps"`
	Results             []trainResult `json:"results"`
	SpeedupW4VsSerial   float64       `json:"speedup_workers4_vs_serial"`
	CacheColdMs         float64       `json:"cache_cold_ms"`
	CacheWarmMs         float64       `json:"cache_warm_ms"`
	CacheSpeedup        float64       `json:"cache_speedup_warm_vs_cold"`
	DeterminismVerified bool          `json:"determinism_workers1_vs_4_verified"`
	Note                string        `json:"note,omitempty"`
}

// timedRun trains a fresh paper-shape hybrid from the same seed and returns
// the best-of-reps throughput for the given worker count.
func timedRun(x *train.Config, feats *speechcmd.Dataset, width float64, seed int64, workers, reps int) trainResult {
	bx, by := speechcmd.Batch(feats.Train, 0, len(feats.Train))
	steps := (len(by) + x.BatchSize - 1) / x.BatchSize * x.Epochs
	var bestElapsed time.Duration
	var lastLoss float64
	for rep := 0; rep < reps; rep++ {
		mcfg := core.DefaultConfig(speechcmd.NumClasses)
		mcfg.WidthMult = width
		m := core.New(mcfg, rand.New(rand.NewSource(seed)))
		cfg := *x
		cfg.Workers = workers
		start := time.Now()
		res := train.Run(m, bx, by, cfg)
		elapsed := time.Since(start)
		if rep == 0 || elapsed < bestElapsed {
			bestElapsed = elapsed
		}
		lastLoss = res.FinalLoss
	}
	name := "TrainSerial"
	shards := 0
	if workers > 0 {
		name = fmt.Sprintf("TrainWorkers%d", workers)
		shards = x.Shards
		if shards == 0 {
			shards = train.DefaultShards
		}
	}
	return trainResult{
		Name:          name,
		Workers:       workers,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Shards:        shards,
		SamplesPerSec: float64(len(by)*x.Epochs) / bestElapsed.Seconds(),
		NsPerStep:     float64(bestElapsed.Nanoseconds()) / float64(steps),
		FinalLoss:     lastLoss,
	}
}

func benchTrain(out string, seed int64, width float64, samplesPerCls, epochs, reps int) {
	dsCfg := speechcmd.DefaultConfig()
	dsCfg.SamplesPerCls = samplesPerCls
	dsCfg.Seed = seed

	// Cold vs warm feature cache through the real GenerateCached path.
	tmpDir, err := os.MkdirTemp("", "kws-bench-cache")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kws-bench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmpDir)
	cachePath := filepath.Join(tmpDir, "feat.thfc")
	coldStart := time.Now()
	ds, warm, err := speechcmd.GenerateCached(dsCfg, cachePath)
	coldMs := float64(time.Since(coldStart).Nanoseconds()) / 1e6
	if err != nil || warm {
		fmt.Fprintf(os.Stderr, "kws-bench: cold cache generation failed (warm=%v err=%v)\n", warm, err)
		os.Exit(1)
	}
	warmMs := 0.0
	for rep := 0; rep < reps; rep++ {
		warmStart := time.Now()
		_, w, err := speechcmd.GenerateCached(dsCfg, cachePath)
		ms := float64(time.Since(warmStart).Nanoseconds()) / 1e6
		if err != nil || !w {
			fmt.Fprintf(os.Stderr, "kws-bench: warm cache load failed (warm=%v err=%v)\n", w, err)
			os.Exit(1)
		}
		if rep == 0 || ms < warmMs {
			warmMs = ms
		}
	}

	base := train.Config{
		Epochs:    epochs,
		BatchSize: 20,
		Schedule:  train.StepSchedule{Base: 0.01, Every: epochs + 1, Factor: 0.3},
		Loss:      train.MultiClassHinge,
		Seed:      seed,
	}

	rep := trainReport{
		Schema:          "kws-train-bench/v2",
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		Model:           "st-hybrid",
		WidthMult:       width,
		Seed:            seed,
		SamplesPerClass: samplesPerCls,
		TrainSamples:    len(ds.Train),
		Epochs:          epochs,
		BatchSize:       base.BatchSize,
		Reps:            reps,
		CacheColdMs:     coldMs,
		CacheWarmMs:     warmMs,
		CacheSpeedup:    coldMs / warmMs,
	}

	// Worker rows run under GOMAXPROCS=workers (restored after each row), so
	// the per-count scaling curve reflects the core budget a deployment at
	// that width would actually get; the serial row keeps the host default.
	prevProcs := runtime.GOMAXPROCS(0)
	var serial, w4 trainResult
	for _, workers := range []int{0, 1, 2, 4, 8} {
		if workers > 0 {
			runtime.GOMAXPROCS(workers)
		}
		r := timedRun(&base, ds, width, seed, workers, reps)
		runtime.GOMAXPROCS(prevProcs)
		rep.Results = append(rep.Results, r)
		switch workers {
		case 0:
			serial = r
		case 4:
			w4 = r
		}
		fmt.Fprintf(os.Stderr, "kws-bench: %-14s %8.1f samples/sec  %12.0f ns/step  loss %.4f\n",
			r.Name, r.SamplesPerSec, r.NsPerStep, r.FinalLoss)
	}
	rep.SpeedupW4VsSerial = w4.SamplesPerSec / serial.SamplesPerSec

	// Cross-check the reduction-order determinism claim in the shipped
	// artifact, not just the test suite: Workers=1 and Workers=4 must land
	// on bit-identical final losses.
	bx, by := speechcmd.Batch(ds.Train, 0, len(ds.Train))
	var losses [2]float64
	for i, workers := range []int{1, 4} {
		mcfg := core.DefaultConfig(speechcmd.NumClasses)
		mcfg.WidthMult = width
		m := core.New(mcfg, rand.New(rand.NewSource(seed)))
		cfg := base
		cfg.Workers = workers
		losses[i] = train.Run(m, bx, by, cfg).FinalLoss
	}
	rep.DeterminismVerified = losses[0] == losses[1]

	// Recorded after the benchmarks so the report reflects the environment
	// the numbers were actually measured under.
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	rep.Note = "schema v2: worker rows are measured under GOMAXPROCS=workers (recorded per row)"
	if rep.NumCPU == 1 {
		rep.Note += "; single-CPU host: worker replicas timeslice one core, so parallel samples/sec cannot exceed serial here; the speedup gate applies on multi-core hosts"
	}

	writeReport(rep, out)
	fmt.Printf("kws-bench: train serial %.1f samples/sec, workers=4 %.1f (%.2fx), cache cold %.0fms warm %.1fms (%.0fx) -> %s\n",
		serial.SamplesPerSec, w4.SamplesPerSec, rep.SpeedupW4VsSerial, coldMs, warmMs, rep.CacheSpeedup, out)
}
