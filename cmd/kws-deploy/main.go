// Command kws-deploy compiles a trained ST-HybridNet into the packed
// integer model format (.thnt) and verifies the integer engine against the
// float model on the test split — the repository's microcontroller
// deployment path. The stored activation policy is selectable (-int8 /
// -mixed), and the tool prints the paper's footprint comparison (model file
// plus steady-state activation scratch, float vs mixed vs fully-8-bit)
// together with the per-layer calibration records behind the requantisation
// constants.
//
// Usage:
//
//	kws-deploy -out model.thnt                  # train in-process, compile, verify
//	kws-deploy -params model.gob -out model.thnt -width 0.25
//	kws-deploy -int8 -out model8.thnt           # ship the fully-8-bit policy
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/opcount"
	"repro/internal/quant"
	"repro/internal/speechcmd"
	"repro/internal/train"
)

func main() {
	params := flag.String("params", "", "load trained st-hybrid parameters (gob from kws-train)")
	out := flag.String("out", "model.thnt", "output path for the packed integer model")
	width := flag.Float64("width", 0.25, "model width multiplier (must match saved params)")
	samples := flag.Int("samples", 60, "corpus samples per class (training and calibration)")
	epochs := flag.Int("epochs", 18, "epochs per stage when training in-process")
	int8Pol := flag.Bool("int8", false, "store the fully-8-bit activation policy in the artifact (default: mixed 8/16-bit)")
	calibOut := flag.Bool("calib", true, "print the per-layer calibration records (bit widths and scales)")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	dsCfg := speechcmd.DefaultConfig()
	dsCfg.SamplesPerCls = *samples
	dsCfg.Seed = *seed
	fmt.Fprintln(os.Stderr, "generating corpus...")
	ds := speechcmd.Generate(dsCfg)
	x, y := speechcmd.Batch(ds.Train, 0, len(ds.Train))
	tx, ty := speechcmd.Batch(ds.Test, 0, len(ds.Test))

	cfg := core.DefaultConfig(speechcmd.NumClasses)
	cfg.WidthMult = *width
	h := core.New(cfg, rand.New(rand.NewSource(*seed)))

	if *params != "" {
		f, err := os.Open(*params)
		if err != nil {
			fatal(err)
		}
		if err := nn.LoadParams(f, h); err != nil {
			fatal(err)
		}
		f.Close()
	} else {
		fmt.Fprintln(os.Stderr, "training ST-HybridNet through the staged schedule...")
		base := train.Config{
			BatchSize: 20,
			Schedule:  train.StepSchedule{Base: 0.01, Every: *epochs/2 + 1, Factor: 0.3},
			Loss:      train.MultiClassHinge,
			Seed:      *seed,
			OnEpoch: func(epoch int, loss float64) {
				h.AnnealSigma(float64(epoch)/float64(3**epochs), 8)
			},
		}
		train.RunStaged(h, x, y, train.StagedConfig{
			Base: base, WarmupEpochs: *epochs, QuantEpochs: *epochs, FixedEpochs: *epochs,
		})
	}
	floatAcc := train.Accuracy(h, tx, ty, 64)
	fmt.Printf("float test accuracy:   %.4f\n", floatAcc)

	eng, err := deploy.Compile(h, x)
	if err != nil {
		fatal(err)
	}
	if *int8Pol {
		eng.Policy = deploy.PolicyInt8
	}
	fmt.Printf("activation policy:     %s\n", eng.Policy)

	// Verify the integer engine against the float model at the policy the
	// artifact will ship with.
	dim := tx.Dim(1)
	agree, correct := 0, 0
	floatPred := h.Forward(tx, false).ArgmaxRows()
	for i := 0; i < tx.Dim(0); i++ {
		_, cls := eng.Infer(tx.Data[i*dim : (i+1)*dim])
		if cls == floatPred[i] {
			agree++
		}
		if cls == ty[i] {
			correct++
		}
	}
	fmt.Printf("integer test accuracy: %.4f\n", float64(correct)/float64(tx.Dim(0)))
	fmt.Printf("float/int agreement:   %d/%d\n", agree, tx.Dim(0))

	if *calibOut {
		// The float-side calibration table (what FakeQuant simulated) next to
		// the scales the engine actually serialises into the v3 artifact.
		pol := quant.ActMixed816
		if *int8Pol {
			pol = quant.Act8
		}
		fmt.Println("\nper-layer calibration records (float simulation):")
		for _, r := range quant.Calibrate(h, x, pol).Records() {
			fmt.Printf("  %-28s bits=%-2d scale=%g\n", r.Layer, r.Bits, r.Scale)
		}
		fmt.Println("engine activation sites (.thnt v3 table):")
		for _, c := range eng.Calib {
			fmt.Printf("  %-28s bits=%-2d scale=%g\n", c.Site, c.Bits, c.Scale)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	n, err := eng.WriteTo(f)
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	var floatBytes int64
	for _, p := range h.Params() {
		floatBytes += int64(p.W.Size()) * 4
	}
	fmt.Printf("\nwrote %s: %d bytes (float32 parameters would be %d bytes, %.1fx larger)\n",
		*out, n, floatBytes, float64(floatBytes)/float64(n))

	// The paper's Table 6 footprint story for this artifact: flash (model
	// file), the weight-derived bytes the compiled engine holds resident
	// (plane masks, packed ternaries, requantisers, tables — measured, not
	// computed; the float reference holds its float32 parameters) and
	// steady-state activation scratch under each execution mode, then the
	// resident weights by component beside opcount's analytic model size.
	scratchFloat := eng.FloatScratchBytes()
	weights := eng.WeightBytes()
	eng.Policy = deploy.PolicyInt8
	scratch8 := eng.ScratchBytes()
	eng.Policy = deploy.PolicyMixed
	scratchMixed := eng.ScratchBytes()
	fmt.Println("\nfootprint (bytes):          model file  resident weights  activation scratch")
	fmt.Printf("  float32 reference     %12d  %16d  %18d\n", floatBytes, floatBytes, scratchFloat)
	fmt.Printf("  packed mixed 8/16-bit %12d  %16d  %18d\n", n, weights, scratchMixed)
	fmt.Printf("  packed fully 8-bit    %12d  %16d  %18d\n", n, weights, scratch8)

	wf := eng.WeightFootprint()
	model := opcount.Count(h, core.InputDim).ModelSizeBytes(2)
	fmt.Println("\nresident weights by component (bytes):")
	fmt.Printf("  ±1 plane masks            %8d\n", wf.Masks)
	fmt.Printf("  packed 2-bit ternaries    %8d\n", wf.Packed)
	fmt.Printf("  requantisers (both sets)  %8d\n", wf.Requant)
	fmt.Printf("  biases, depthwise tables  %8d\n", wf.Tables)
	fmt.Printf("  tree θ and tanh LUT       %8d\n", wf.Tree)
	fmt.Printf("  total                     %8d  (analytic model, 2-bit ternary + 16-bit â/bias: %.0f)\n", wf.Total(), model)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
