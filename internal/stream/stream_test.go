package stream

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/models"
	"repro/internal/speechcmd"
	"repro/internal/tensor"
	"repro/internal/train"
)

// fakeClassifier returns a fixed posterior sequence, for unit-testing the
// detector logic without a model.
type fakeClassifier struct {
	probs [][]float32
	i     int
	n     int
}

func (f *fakeClassifier) Classify([]float32) []float32 {
	p := f.probs[f.i%len(f.probs)]
	f.i++
	return p
}
func (f *fakeClassifier) NumClasses() int { return f.n }

func pushSeconds(d *Detector, seconds float64, rate int) []Event {
	return d.Push(make([]float64, int(seconds*float64(rate))))
}

func TestDetectorNeedsFullWindow(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.SmoothWin = 1
	d := NewDetector(cfg, fc, 0, 1)
	// Less than one second buffered: no classification at all.
	if ev := pushSeconds(d, 0.9, 1000); len(ev) != 0 {
		t.Fatalf("fired %v before the window filled", ev)
	}
	if fc.i != 0 {
		t.Fatal("classifier ran before the window filled")
	}
	if ev := pushSeconds(d, 0.5, 1000); len(ev) == 0 {
		t.Fatal("no event once the window filled with a confident posterior")
	}
}

func TestDetectorThreshold(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0.5, 0.5}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.Threshold = 0.6
	cfg.SmoothWin = 1
	d := NewDetector(cfg, fc, 0, 1)
	if ev := pushSeconds(d, 3, 1000); len(ev) != 0 {
		t.Fatalf("fired %v below threshold", ev)
	}
}

func TestDetectorRefractoryPeriod(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.HopMs = 250
	cfg.RefractoryMs = 600
	cfg.SmoothWin = 1
	d := NewDetector(cfg, fc, 0, 1)
	ev := pushSeconds(d, 3.0, 1000)
	// Hops after warm-up: every 250 ms for 2 s → ~8 classifications, but the
	// 600 ms refractory limits events to roughly one per 750 ms.
	if len(ev) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(ev); i++ {
		if gap := ev[i].Sample - ev[i-1].Sample; gap < 600 {
			t.Fatalf("events %d apart, refractory is 600", gap)
		}
	}
}

func TestDetectorIgnoresConfiguredClasses(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0, 0, 1}}, n: 3}
	cfg := DefaultConfig(1000)
	cfg.IgnoreClass = 2
	cfg.SmoothWin = 1
	d := NewDetector(cfg, fc, 0, 1)
	if ev := pushSeconds(d, 3, 1000); len(ev) != 0 {
		t.Fatalf("fired %v for an ignored class", ev)
	}
}

func TestDetectorSmoothingAveragesHistory(t *testing.T) {
	// Alternating confident/unconfident posteriors: smoothing over 2 windows
	// gives 0.5+ only when both agree.
	fc := &fakeClassifier{probs: [][]float32{{0, 1}, {1, 0}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.SmoothWin = 2
	cfg.Threshold = 0.9
	d := NewDetector(cfg, fc, 0, 1)
	if ev := pushSeconds(d, 4, 1000); len(ev) != 0 {
		t.Fatalf("fired %v despite disagreeing windows", ev)
	}
}

func TestReset(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}
	d := NewDetector(DefaultConfig(1000), fc, 0, 1)
	pushSeconds(d, 2, 1000)
	d.Reset()
	if d.pos != 0 || d.buffered != 0 || len(d.history) != 0 {
		t.Fatal("reset did not clear state")
	}
	if ev := pushSeconds(d, 0.9, 1000); len(ev) != 0 {
		t.Fatal("window not cleared by reset")
	}
}

func TestTrainStats(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 3}, 2)
	b := tensor.FromSlice([]float32{1, 3}, 2)
	mean, std := TrainStats([]*tensor.Tensor{a, b})
	if mean != 2 || std != 1 {
		t.Fatalf("stats (%v,%v), want (2,1)", mean, std)
	}
	m0, s0 := TrainStats(nil)
	if m0 != 0 || s0 != 1 {
		t.Fatal("empty stats should be (0,1)")
	}
}

// End-to-end: a trained model detects keywords embedded in a long stream.
var e2eOnce sync.Once
var e2eCls *ModelClassifier
var e2eDS *speechcmd.Dataset

func e2eSetup(t *testing.T) (*ModelClassifier, *speechcmd.Dataset) {
	t.Helper()
	e2eOnce.Do(func() {
		cfg := speechcmd.DefaultConfig()
		cfg.SamplesPerCls = 30
		ds := speechcmd.Generate(cfg)
		x, y := speechcmd.Batch(ds.Train, 0, len(ds.Train))
		rng := rand.New(rand.NewSource(1))
		m := models.NewDSCNN(speechcmd.NumClasses, 0.2, rng)
		train.Run(m, x, y, train.Config{
			Epochs:    16,
			BatchSize: 20,
			Schedule:  train.StepSchedule{Base: 0.01, Every: 9, Factor: 0.3},
			Loss:      train.CrossEntropy,
			Seed:      1,
		})
		e2eCls = &ModelClassifier{Model: m, Classes: speechcmd.NumClasses}
		e2eDS = ds
	})
	return e2eCls, e2eDS
}

func TestStreamingDetectsEmbeddedKeywords(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cls, ds := e2eSetup(t)
	scCfg := ds.Config
	rng := rand.New(rand.NewSource(7))

	// Build a 7-second stream: silence, "yes" at 2 s, silence, "stop" at
	// 4.5 s, silence.
	rate := scCfg.SampleRate
	streamWave := make([]float64, 0, 7*rate)
	appendWave := func(w []float64) { streamWave = append(streamWave, w...) }
	appendWave(speechcmd.SynthesizeUtterance("", scCfg, rng))     // 0-1 s silence
	appendWave(speechcmd.SynthesizeUtterance("", scCfg, rng))     // 1-2 s silence
	appendWave(speechcmd.SynthesizeUtterance("yes", scCfg, rng))  // 2-3 s
	appendWave(speechcmd.SynthesizeUtterance("", scCfg, rng))     // 3-4 s silence
	appendWave(speechcmd.SynthesizeUtterance("stop", scCfg, rng)) // 4-5 s
	appendWave(speechcmd.SynthesizeUtterance("", scCfg, rng))     // 5-6 s silence
	appendWave(speechcmd.SynthesizeUtterance("", scCfg, rng))     // 6-7 s silence

	dcfg := DefaultConfig(rate)
	dcfg.IgnoreClass = speechcmd.SilenceClass
	dcfg.IgnoreClass2 = speechcmd.UnknownClass
	dcfg.Threshold = 0.5
	det := NewDetector(dcfg, cls, ds.FeatMean, ds.FeatStd)

	events := det.Push(streamWave)
	classesSeen := map[int]bool{}
	names := speechcmd.ClassNames()
	for _, ev := range events {
		classesSeen[ev.Class] = true
		t.Logf("event at %.2fs: %s (%.2f)", float64(ev.Sample)/float64(rate), names[ev.Class], ev.Score)
	}
	yesIdx, stopIdx := 0, 8 // "yes" and "stop" in TargetWords order
	if !classesSeen[yesIdx] {
		t.Error("did not detect 'yes'")
	}
	if !classesSeen[stopIdx] {
		t.Error("did not detect 'stop'")
	}
	// Detections should sit near the true utterance positions (within the
	// window length plus smoothing latency).
	for _, ev := range events {
		sec := float64(ev.Sample) / float64(rate)
		if ev.Class == yesIdx && (sec < 2.0 || sec > 4.0) {
			t.Errorf("'yes' detected at %.2fs, expected 2-4s", sec)
		}
		if ev.Class == stopIdx && (sec < 4.0 || sec > 6.5) {
			t.Errorf("'stop' detected at %.2fs, expected 4-6.5s", sec)
		}
	}
}

func TestStreamingQuietStreamStaysQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cls, ds := e2eSetup(t)
	dcfg := DefaultConfig(ds.Config.SampleRate)
	dcfg.IgnoreClass = speechcmd.SilenceClass
	dcfg.IgnoreClass2 = speechcmd.UnknownClass
	dcfg.Threshold = 0.5
	det := NewDetector(dcfg, cls, ds.FeatMean, ds.FeatStd)
	rng := rand.New(rand.NewSource(9))
	var quiet []float64
	for i := 0; i < 5; i++ {
		quiet = append(quiet, speechcmd.SynthesizeUtterance("", ds.Config, rng)...)
	}
	if events := det.Push(quiet); len(events) != 0 {
		t.Fatalf("fired %d events on pure silence", len(events))
	}
}

// windowClassifier records a copy of every window it classifies and the
// stream position its detector had reached.
type windowClassifier struct {
	d     *Detector
	feats [][]float32
	pos   []int
}

func (w *windowClassifier) Classify(f []float32) []float32 {
	w.feats = append(w.feats, append([]float32(nil), f...))
	w.pos = append(w.pos, w.d.pos)
	return []float32{0.5, 0.5}
}

func (w *windowClassifier) NumClasses() int { return 2 }

// TestFullWindowFeaturesMatchCompute pins the full-window pipeline's
// in-place ring featurisation bit for bit against MFCC.Compute over the
// unrolled last second, normalised, at 4 and 16 kHz. A 110 ms hop and
// random chunkings put the ring's oldest sample at dozens of offsets, so
// frames wrap the ring at many points.
func TestFullWindowFeaturesMatchCompute(t *testing.T) {
	const mean, std = -0.3, 2.1
	for _, rate := range []int{4000, 16000} {
		cfg := DefaultConfig(rate)
		cfg.HopMs = 110
		wc := &windowClassifier{}
		d := NewDetector(cfg, wc, mean, std)
		wc.d = d
		rng := rand.New(rand.NewSource(int64(rate)))
		audio := make([]float64, 6*rate)
		for i := range audio {
			audio[i] = 0.9 * (2*rng.Float64() - 1) // inside [-1, 1]: nothing clipped
		}
		for rest := audio; len(rest) > 0; {
			n := min(1+rng.Intn(3*d.EffectiveHop()), len(rest))
			d.Push(rest[:n])
			rest = rest[n:]
		}
		m := dsp.NewMFCC(dsp.DefaultMFCCConfig(rate))
		offsets := map[int]bool{}
		for h, f := range wc.feats {
			pos := wc.pos[h]
			want := m.Compute(audio[pos-rate : pos])
			for i, v := range want.Data {
				if w := (v - mean) / std; f[i] != w {
					t.Fatalf("rate %d hop %d (ring offset %d): feature %d is %v, Compute gives %v",
						rate, h, pos%rate, i, f[i], w)
				}
			}
			offsets[pos%rate] = true
		}
		if len(offsets) < 40 {
			t.Fatalf("rate %d: %d hops put the ring's start at only %d offsets", rate, len(wc.feats), len(offsets))
		}
	}
}
