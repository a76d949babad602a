package stream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/deploy"
)

// TestEngineClassifierPosteriors: scores from the packed engine come back as
// a normalised distribution of the engine's class count.
func TestEngineClassifierPosteriors(t *testing.T) {
	e := deploy.SyntheticEngine(21, 0.35)
	c := NewEngineClassifier(e)
	if c.NumClasses() != int(e.Tree.NumClasses) {
		t.Fatalf("NumClasses=%d, want %d", c.NumClasses(), e.Tree.NumClasses)
	}
	rng := rand.New(rand.NewSource(22))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	probs := c.Classify(x)
	if len(probs) != c.NumClasses() {
		t.Fatalf("got %d posteriors, want %d", len(probs), c.NumClasses())
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || math.IsNaN(float64(p)) {
			t.Fatalf("bad posterior %g", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("posteriors sum to %g, want 1", sum)
	}
	// The argmax posterior must agree with the engine's integer argmax.
	_, wantCls := e.Infer(x)
	best, bestP := 0, float32(-1)
	for i, p := range probs {
		if p > bestP {
			best, bestP = i, p
		}
	}
	if best != wantCls {
		t.Fatalf("posterior argmax %d, engine class %d", best, wantCls)
	}
}

// TestEngineClassifierRejectsBadFrame: a wrong-length frame yields nil,
// which the detector's safeClassify counts as a rejected hop.
func TestEngineClassifierRejectsBadFrame(t *testing.T) {
	c := NewEngineClassifier(deploy.SyntheticEngine(23, 0.35))
	if probs := c.Classify(make([]float32, 7)); probs != nil {
		t.Fatalf("bad frame produced posteriors %v", probs)
	}
}

// TestEngineClassifierReusesOutput documents the reuse contract the Detector
// defends against: consecutive hops overwrite the same slice.
func TestEngineClassifierReusesOutput(t *testing.T) {
	e := deploy.SyntheticEngine(24, 0.35)
	c := NewEngineClassifier(e)
	x := make([]float32, e.Frames*e.Coeffs)
	p1 := c.Classify(x)
	p2 := c.Classify(x)
	if &p1[0] != &p2[0] {
		t.Fatal("expected the posterior slice to be reused across hops")
	}
}

// TestDetectorWithEngineClassifier runs the full streaming loop on top of
// the packed engine: the smoothing ring must hold independent copies even
// though the classifier reuses its output slice.
func TestDetectorWithEngineClassifier(t *testing.T) {
	const rate = 4000
	e := deploy.SyntheticEngine(25, 0.35)
	c := NewEngineClassifier(e)
	cfg := DefaultConfig(rate)
	cfg.Threshold = 2 // never fire: this test is about plumbing, not weights
	d := NewDetector(cfg, c, 0, 1)
	rng := rand.New(rand.NewSource(26))
	buf := make([]float64, rate/4)
	for hop := 0; hop < 12; hop++ {
		for i := range buf {
			buf[i] = rng.NormFloat64() * 0.1
		}
		d.Push(buf)
	}
	if st := d.Stats(); st.BadPosteriors != 0 {
		t.Fatalf("engine classifier produced %d bad posteriors", st.BadPosteriors)
	}
	if len(d.history) > cfg.SmoothWin {
		t.Fatalf("history grew to %d, cap is %d", len(d.history), cfg.SmoothWin)
	}
	// With random weights the posterior is frame-dependent; the ring entries
	// must not all alias the classifier's reused slice.
	if len(d.history) >= 2 && &d.history[0][0] == &d.history[1][0] {
		t.Fatal("smoothing ring entries alias the same storage")
	}
}

// TestDetectorSteadyHopZeroAllocs: a warm detector over an EngineClassifier
// allocates nothing per steady hop, on the full-window pipeline (ring
// featurisation in place, batch inference) and the incremental one (the
// streaming frontend and the engine hop cache), with a smoothing ring of
// one slot and of three that rotates in place.
func TestDetectorSteadyHopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	const rate = 4000
	e := deploy.SyntheticEngine(27, 0.35)
	rng := rand.New(rand.NewSource(28))
	for _, incremental := range []bool{false, true} {
		for _, win := range []int{1, 3} {
			cfg := DefaultConfig(rate)
			cfg.Incremental = incremental
			cfg.SmoothWin = win
			cfg.Threshold = 2 // never fire: Push would allocate its event slice
			c := NewEngineClassifier(e)
			d := NewDetector(cfg, c, 0, 1)
			hop := d.EffectiveHop()
			audio := make([]float64, 32*hop)
			for i := range audio {
				audio[i] = 0.3 * rng.NormFloat64()
			}
			pos := 0
			push := func() {
				d.Push(audio[pos : pos+hop])
				pos = (pos + hop) % len(audio)
			}
			for i := 0; i < rate/hop+win+1; i++ {
				push() // a full second buffered and a full smoothing ring
			}
			if allocs := testing.AllocsPerRun(20, push); allocs != 0 {
				t.Fatalf("incremental=%v SmoothWin %d: a steady hop allocates %.1f objects, want 0", incremental, win, allocs)
			}
			if len(d.history) != win {
				t.Fatalf("incremental=%v SmoothWin %d: smoothing ring holds %d slots", incremental, win, len(d.history))
			}
			c.Close()
		}
	}
}
