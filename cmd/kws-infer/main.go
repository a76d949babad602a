// Command kws-infer synthesises an utterance of a chosen keyword, runs the
// MFCC front end and a (freshly trained or loaded) ST-HybridNet over it, and
// prints the classification together with the decision path through the
// Bonsai tree — a small end-to-end demonstration of the paper's pipeline.
// With -telemetry-addr the run exposes live /metrics and /healthz while it
// lasts; -trace-out records the packed engine's per-layer spans.
//
// Usage:
//
//	kws-infer -word yes                    # train a small model, then infer
//	kws-infer -word stop -params model.gob -width 0.25
//	kws-infer -engine model.thnt -trace-out trace.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/audio"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/nn"
	"repro/internal/speechcmd"
	"repro/internal/telemetry"
	"repro/internal/train"
)

func main() {
	word := flag.String("word", "yes", `keyword to synthesise ("silence" for background noise)`)
	wavIn := flag.String("wav", "", "classify this mono 16-bit PCM WAV file instead of synthesising")
	wavOut := flag.String("savewav", "", "also write the synthesised utterance to this WAV file")
	params := flag.String("params", "", "load trained st-hybrid parameters from this file (else train quickly)")
	engine := flag.String("engine", "", "classify with this packed integer model (.thnt); falls back to the float model if it fails validation")
	int8Pol := flag.Bool("int8", false, "run the packed engine fully 8-bit (PolicyInt8), overriding the model's stored policy")
	mixedPol := flag.Bool("mixed", false, "pin the packed engine to the mixed 8/16-bit policy, overriding the model's stored policy")
	width := flag.Float64("width", 0.25, "model width multiplier (must match saved params)")
	epochs := flag.Int("epochs", 12, "epochs per stage when training in-process")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address for the run's duration (empty disables)")
	traceOut := flag.String("trace-out", "", "write engine spans to this Chrome trace-event JSON file on exit")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	log := telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*logLevel), "kws-infer")

	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *telemetryAddr != "" || *traceOut != "" {
		reg = telemetry.Default
	}
	if *traceOut != "" {
		tracer = telemetry.NewTracer(0)
	}

	cfg := core.DefaultConfig(speechcmd.NumClasses)
	cfg.WidthMult = *width
	h := core.New(cfg, rand.New(rand.NewSource(*seed)))

	if *params != "" {
		f, err := os.Open(*params)
		if err != nil {
			fatal(log, err)
		}
		if err := nn.LoadParams(f, h); err != nil {
			fatal(log, err)
		}
		f.Close()
		log.Info("loaded parameters", "path", *params)
	} else {
		log.Info("no -params given: training a small ST-HybridNet in-process", "epochs_per_stage", *epochs)
		dsCfg := speechcmd.DefaultConfig()
		dsCfg.SamplesPerCls = 40
		dsCfg.Seed = *seed
		ds := speechcmd.Generate(dsCfg)
		x, y := speechcmd.Batch(ds.Train, 0, len(ds.Train))
		base := train.Config{
			BatchSize: 20,
			Schedule:  train.StepSchedule{Base: 0.01, Every: *epochs/2 + 1, Factor: 0.3},
			Loss:      train.MultiClassHinge,
			Seed:      *seed,
			Obs:       train.NewObs(reg),
			OnEpoch: func(epoch int, loss float64) {
				h.AnnealSigma(float64(epoch)/float64(3**epochs), 8)
			},
		}
		train.RunStaged(h, x, y, train.StagedConfig{
			Base: base, WarmupEpochs: *epochs, QuantEpochs: *epochs, FixedEpochs: *epochs,
		})
		tx, ty := speechcmd.Batch(ds.Test, 0, len(ds.Test))
		log.Info("model trained", "test_accuracy", train.Accuracy(h, tx, ty, 64))
	}

	// Obtain the utterance: either a real recording or a synthetic one.
	scCfg := speechcmd.DefaultConfig()
	var wave []float64
	if *wavIn != "" {
		f, err := os.Open(*wavIn)
		if err != nil {
			fatal(log, err)
		}
		samples, rate, err := audio.ReadWAV(f)
		f.Close()
		if err != nil {
			fatal(log, err)
		}
		wave = audio.Resample(samples, rate, scCfg.SampleRate)
		if len(wave) < scCfg.SampleRate {
			wave = append(wave, make([]float64, scCfg.SampleRate-len(wave))...)
		}
		wave = wave[:scCfg.SampleRate]
	} else {
		synthWord := *word
		if synthWord == "silence" {
			synthWord = ""
		}
		wave = speechcmd.SynthesizeUtterance(synthWord, scCfg, rand.New(rand.NewSource(*seed+42)))
		if *wavOut != "" {
			f, err := os.Create(*wavOut)
			if err != nil {
				fatal(log, err)
			}
			if err := audio.WriteWAV(f, wave, scCfg.SampleRate); err != nil {
				fatal(log, fmt.Errorf("writing %s: %w", *wavOut, err))
			}
			f.Close()
			log.Info("wrote utterance", "path", *wavOut)
		}
	}
	mfcc := dsp.NewMFCC(dsp.DefaultMFCCConfig(scCfg.SampleRate))
	feat := mfcc.Compute(wave)
	x := feat.Reshape(1, feat.Size())

	// Degraded-mode classification: prefer the packed integer engine when one
	// is given and healthy; on any load, validation or inference fault, warn
	// and fall back to the float model so the tool still answers.
	var eng *deploy.Engine
	if *engine != "" {
		f, err := os.Open(*engine)
		if err != nil {
			log.Warn("cannot open integer engine; falling back to the float model", "err", err)
		} else {
			eng, err = deploy.ReadEngine(f)
			f.Close()
			if err != nil {
				log.Warn("integer engine rejected; falling back to the float model", "err", err)
				eng = nil
			}
		}
	}
	if eng != nil {
		// Policy flags override whatever a v3 model stored: the loaded
		// engine compiled at the stored policy, so another one needs an
		// engine of its own.
		pol := eng.Policy
		if *int8Pol {
			pol = deploy.PolicyInt8
		} else if *mixedPol {
			pol = deploy.PolicyMixed
		}
		if pol != eng.Policy {
			if e, err := eng.WithPolicy(pol); err != nil {
				log.Warn("integer engine rejected at the requested policy; falling back to the float model", "err", err)
				eng = nil
			} else {
				eng = e
			}
		}
	}
	if eng != nil {
		log.Info("engine activation policy", "policy", eng.Policy.String())
		if reg != nil {
			eng.EnableTelemetry(reg, tracer)
		}
	}

	var srv *telemetry.Server
	if *telemetryAddr != "" {
		srv = telemetry.NewServer(reg, tracer)
		if eng != nil {
			srv.AddCheck("engine", eng.Validate)
		}
		addr, err := srv.Start(*telemetryAddr)
		if err != nil {
			fatal(log, fmt.Errorf("telemetry server: %w", err))
		}
		defer srv.Close()
		log.Info("telemetry server listening", "addr", addr)
	}

	names := speechcmd.ClassNames()
	logits := h.Forward(x, false)
	pred := logits.ArgmaxRows()[0]
	fmt.Printf("\nsynthesised word: %q\n", *word)
	usedEngine := false
	if eng != nil {
		scores, intPred, err := eng.InferSafe(feat.Data)
		if err != nil {
			log.Warn("integer engine inference failed; falling back to the float model", "err", err)
		} else {
			usedEngine = true
			pred = intPred
			fmt.Printf("prediction:       %q (integer engine)\n\n", names[pred])
			fmt.Println("integer class scores:")
			for i, n := range names {
				marker := "  "
				if i == pred {
					marker = "->"
				}
				fmt.Printf("  %s %-8s %8d\n", marker, n, scores[i])
			}
		}
	}
	if !usedEngine {
		fmt.Printf("prediction:       %q\n\n", names[pred])
		fmt.Println("class scores:")
		for i, n := range names {
			marker := "  "
			if i == pred {
				marker = "->"
			}
			fmt.Printf("  %s %-8s %8.3f\n", marker, n, logits.At(0, i))
		}
	}

	// Show the Bonsai decision path: the conv front end runs first, then the
	// tree reports its most probable root-to-leaf traversal.
	convOut := x
	for _, l := range h.Sequential.Layers[:len(h.Sequential.Layers)-1] {
		convOut = l.Forward(convOut, false)
	}
	path, inds := h.Tree.PathTrace(convOut)
	fmt.Println("\nBonsai decision path (node index: indicator weight):")
	for i, node := range path {
		kind := "internal"
		if node >= h.Tree.Cfg.NumInternal() {
			kind = "leaf"
		}
		fmt.Printf("  depth %d: node %d (%s), I=%.3f\n", i, node, kind, inds[i])
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(log, fmt.Errorf("creating trace file: %w", err))
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			fatal(log, fmt.Errorf("writing %s: %w", *traceOut, err))
		}
		if err := f.Close(); err != nil {
			fatal(log, fmt.Errorf("closing %s: %w", *traceOut, err))
		}
		log.Info("trace written", "path", *traceOut, "spans", tracer.Len(), "dropped", tracer.Dropped())
	}
}

func fatal(log *telemetry.Logger, err error) {
	log.Error(err.Error())
	os.Exit(1)
}
