// Command kws-stream runs always-on keyword detection over an audio stream:
// either a WAV file or a synthetic scripted stream. A small DS-CNN is
// trained in-process (or loaded), and detections print with their stream
// timestamps. With -telemetry-addr the process also serves live /metrics,
// /healthz, /debug/vars and /debug/pprof endpoints, and -trace-out captures
// per-layer engine spans as a Chrome trace-event file.
//
// Usage:
//
//	kws-stream                         # synthetic demo stream
//	kws-stream -wav recording.wav      # detect keywords in a recording
//	kws-stream -script yes,_,go,_,left # build the stream from words (_ = silence)
//	kws-stream -engine model.thnt      # classify with a packed integer engine
//	kws-stream -telemetry-addr :8080   # expose metrics/health while streaming
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/audio"
	"repro/internal/deploy"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/speechcmd"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/train"
)

func main() {
	wavIn := flag.String("wav", "", "stream this WAV file through the detector")
	script := flag.String("script", "_,_,yes,_,go,_,_,left,_", "comma-separated words for a synthetic stream (_ = silence)")
	width := flag.Float64("width", 0.2, "classifier width multiplier")
	samples := flag.Int("samples", 40, "training samples per class")
	epochs := flag.Int("epochs", 18, "training epochs")
	threshold := flag.Float64("threshold", 0.5, "smoothed-posterior detection threshold")
	engine := flag.String("engine", "", "classify with this packed integer model (.thnt) instead of training a float model")
	int8Pol := flag.Bool("int8", false, "run the packed engine fully 8-bit (PolicyInt8), overriding the model's stored policy")
	mixedPol := flag.Bool("mixed", false, "pin the packed engine to the mixed 8/16-bit policy, overriding the model's stored policy")
	incremental := flag.Bool("incremental", false, "temporal-cache pipeline: featurise and infer only what each hop changed (bit-identical posteriors; hop snaps down to the 20 ms frame stride, 250 ms -> 240 ms)")
	faultAt := flag.Float64("fault-at", -1, "inject a fault window starting at this second (demo; <0 disables)")
	faultMs := flag.Int("fault-ms", 500, "fault window duration in milliseconds")
	faultKind := flag.String("fault", "nan", "fault kind: nan|dropout|dc|spike")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /metrics, /healthz, /debug/vars and /debug/pprof on this address (e.g. :8080; empty disables)")
	traceOut := flag.String("trace-out", "", "write engine spans to this Chrome trace-event JSON file on exit")
	hold := flag.Duration("hold", 0, "keep the telemetry server alive this long after the stream ends (e.g. 5s)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	log := telemetry.NewLogger(os.Stderr, telemetry.ParseLevel(*logLevel), "kws-stream")

	// Telemetry is opt-in: with no addr and no trace file everything below
	// runs against nil instruments, which cost one pointer compare.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *telemetryAddr != "" {
		reg = telemetry.Default
	}
	if *traceOut != "" {
		if reg == nil {
			reg = telemetry.Default
		}
		tracer = telemetry.NewTracer(0)
	}

	cfg := speechcmd.DefaultConfig()
	cfg.SamplesPerCls = *samples
	cfg.Seed = *seed

	// The corpus is always generated: even a packed engine needs its
	// feature-normalisation statistics to match training.
	log.Info("generating corpus", "samples_per_class", *samples)
	ds := speechcmd.Generate(cfg)

	var cls stream.Classifier
	var eng *deploy.Engine
	if *engine != "" {
		f, err := os.Open(*engine)
		if err != nil {
			fatal(log, err)
		}
		eng, err = deploy.ReadEngine(f)
		f.Close()
		if err != nil {
			fatal(log, fmt.Errorf("loading %s: %w", *engine, err))
		}
		if n := int(eng.Tree.NumClasses); n != speechcmd.NumClasses {
			fatal(log, fmt.Errorf("%s has %d classes, detector needs %d", *engine, n, speechcmd.NumClasses))
		}
		// Policy flags override whatever a v3 model stored: the loaded
		// engine compiled at the stored policy, so another one needs an
		// engine of its own. The Detector's hops (InferBatchInto, or
		// InferHop when incremental) run at the engine's policy.
		pol := eng.Policy
		if *int8Pol {
			pol = deploy.PolicyInt8
		} else if *mixedPol {
			pol = deploy.PolicyMixed
		}
		if pol != eng.Policy {
			if eng, err = eng.WithPolicy(pol); err != nil {
				fatal(log, fmt.Errorf("%s at %v: %w", *engine, pol, err))
			}
		}
		if reg != nil {
			eng.EnableTelemetry(reg, tracer)
		}
		log.Info("using packed engine", "path", *engine, "policy", eng.Policy.String())
		cls = stream.NewEngineClassifier(eng)
	} else {
		log.Info("training classifier", "width", *width, "epochs", *epochs)
		x, y := speechcmd.Batch(ds.Train, 0, len(ds.Train))
		vx, vy := speechcmd.Batch(ds.Val, 0, len(ds.Val))
		rng := rand.New(rand.NewSource(*seed))
		m := models.NewDSCNN(speechcmd.NumClasses, *width, rng)
		train.Run(m, x, y, train.Config{
			Epochs:    *epochs,
			BatchSize: 20,
			Schedule:  train.StepSchedule{Base: 0.01, Every: *epochs/2 + 1, Factor: 0.3},
			Loss:      train.CrossEntropy,
			Seed:      *seed,
			Obs:       train.NewObs(reg),
			EvalX:     vx,
			EvalY:     vy,
		})
		tx, ty := speechcmd.Batch(ds.Test, 0, len(ds.Test))
		log.Info("classifier trained", "test_accuracy", train.Accuracy(m, tx, ty, 64))
		cls = &stream.ModelClassifier{Model: m, Classes: speechcmd.NumClasses}
	}

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
		wave = audio.Resample(samples, rate, cfg.SampleRate)
		log.Info("streaming wav", "path", *wavIn, "seconds", float64(len(wave))/float64(cfg.SampleRate))
	} else {
		wrng := rand.New(rand.NewSource(*seed + 99))
		for i, w := range strings.Split(*script, ",") {
			word := strings.TrimSpace(w)
			if word == "_" || word == "silence" {
				word = ""
			}
			label := word
			if label == "" {
				label = "(silence)"
			}
			log.Debug("script word", "second", i, "word", label)
			wave = append(wave, speechcmd.SynthesizeUtterance(word, cfg, wrng)...)
		}
	}

	// Optional fault injection, to demonstrate the detector surviving glitchy
	// capture hardware: the samples inside the window are corrupted and the
	// detector's sanitisation/watchdog counters report what was absorbed.
	if *faultAt >= 0 {
		start := int(*faultAt * float64(cfg.SampleRate))
		n := *faultMs * cfg.SampleRate / 1000
		switch *faultKind {
		case "nan":
			faultinject.NaNBurst(wave, start, n)
		case "dropout":
			faultinject.Dropout(wave, start, n)
		case "dc":
			faultinject.DCOffset(wave, start, n, 0.8)
		case "spike":
			faultinject.New(*seed).Spikes(wave[min(start, len(wave)):min(start+n, len(wave))], 32, 4.0)
		default:
			fatal(log, fmt.Errorf("unknown fault kind %q", *faultKind))
		}
		log.Warn("injected fault", "kind", *faultKind, "at_seconds", *faultAt, "duration_ms", *faultMs)
	}

	dcfg := stream.DefaultConfig(cfg.SampleRate)
	dcfg.IgnoreClass = speechcmd.SilenceClass
	dcfg.IgnoreClass2 = speechcmd.UnknownClass
	dcfg.Threshold = float32(*threshold)
	dcfg.Incremental = *incremental
	det := stream.NewDetector(dcfg, cls, ds.FeatMean, ds.FeatStd)
	det.AttachTelemetry(reg)

	// The health endpoint reflects the live pipeline: the loaded engine's
	// structural validity and the detector's posterior watchdog.
	if *telemetryAddr != "" {
		srv := telemetry.NewServer(reg, tracer)
		srv.AddCheck("detector", det.Health)
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
	chunk := cfg.SampleRate / 10
	count := 0
	for lo := 0; lo < len(wave); lo += chunk {
		hi := lo + chunk
		if hi > len(wave) {
			hi = len(wave)
		}
		for _, ev := range det.Push(wave[lo:hi]) {
			fmt.Printf("%6.2fs  %-8s posterior %.2f\n",
				float64(ev.Sample)/float64(cfg.SampleRate), names[ev.Class], ev.Score)
			count++
		}
	}
	log.Info("stream finished", "detections", count)
	if st := det.Stats(); st != (stream.Stats{}) {
		log.Warn("faults absorbed",
			"scrubbed", st.Scrubbed, "clipped", st.Clipped, "concealed", st.Concealed,
			"bad_posteriors", st.BadPosteriors, "watchdog_resets", st.WatchdogResets)
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

	if *hold > 0 {
		log.Info("holding for scrapes", "duration", *hold)
		time.Sleep(*hold)
	}
}

func fatal(log *telemetry.Logger, err error) {
	log.Error(err.Error())
	os.Exit(1)
}
