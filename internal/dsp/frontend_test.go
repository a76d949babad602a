package dsp

import (
	"math/rand"
	"testing"
)

// TestFrontendMatchesBatch pins the streaming frontend bit-exactly against
// batch MFCC.Compute: after any prefix of the stream, the frontend's frame
// count and every feature of its window ring must equal the batch pipeline's
// over the same samples — regardless of how the stream was chunked. The
// third configuration's 25 ms frame is no multiple of its 10 ms stride, so
// the sample ring also wraps inside the runs Push copies.
func TestFrontendMatchesBatch(t *testing.T) {
	odd := DefaultMFCCConfig(16000)
	odd.FrameMs, odd.StrideMs = 25, 10
	for _, cfg := range []MFCCConfig{DefaultMFCCConfig(16000), DefaultMFCCConfig(4000), odd} {
		rate := cfg.SampleRate
		m := NewMFCC(cfg)
		const winFrames = 49
		f := NewFrontend(cfg, winFrames)
		rng := rand.New(rand.NewSource(41))
		wave := make([]float64, 2*rate+137)
		for i := range wave {
			wave[i] = rng.NormFloat64()
		}
		dst := make([]float32, winFrames*cfg.NumCoeffs)
		pushed := 0
		for pushed < len(wave) {
			n := 1 + rng.Intn(1200)
			if pushed+n > len(wave) {
				n = len(wave) - pushed
			}
			f.Push(wave[pushed : pushed+n])
			pushed += n

			want := cfg.NumFrames(pushed)
			if got := int(f.TotalFrames()); got != want {
				t.Fatalf("rate %d after %d samples: %d frames, batch has %d", rate, pushed, got, want)
			}
			if want < winFrames {
				if f.Window(dst) {
					t.Fatalf("rate %d: Window reported ready with %d < %d frames", rate, want, winFrames)
				}
				continue
			}
			if !f.Window(dst) {
				t.Fatalf("rate %d: Window not ready with %d frames", rate, want)
			}
			ref := m.Compute(wave[:pushed])
			for i := 0; i < winFrames; i++ {
				for c := 0; c < cfg.NumCoeffs; c++ {
					got := dst[i*cfg.NumCoeffs+c]
					want := ref.At(want-winFrames+i, c)
					if got != want {
						t.Fatalf("rate %d frame %d coeff %d: stream %v batch %v", rate, i, c, got, want)
					}
				}
			}
		}
	}
}

// TestFrontendReset verifies Reset re-anchors the stream at position zero:
// a post-reset stream must match a fresh frontend bit for bit.
func TestFrontendReset(t *testing.T) {
	cfg := DefaultMFCCConfig(16000)
	f := NewFrontend(cfg, 49)
	rng := rand.New(rand.NewSource(42))
	junk := make([]float64, 7321)
	for i := range junk {
		junk[i] = rng.NormFloat64()
	}
	f.Push(junk)
	f.Reset()
	if f.TotalFrames() != 0 {
		t.Fatalf("TotalFrames %d after Reset, want 0", f.TotalFrames())
	}

	wave := make([]float64, 16000+640)
	for i := range wave {
		wave[i] = rng.NormFloat64()
	}
	fresh := NewFrontend(cfg, 49)
	f.Push(wave)
	fresh.Push(wave)
	a := make([]float32, 49*cfg.NumCoeffs)
	b := make([]float32, 49*cfg.NumCoeffs)
	if !f.Window(a) || !fresh.Window(b) {
		t.Fatal("windows not ready")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("feature %d: reset frontend %v, fresh %v", i, a[i], b[i])
		}
	}
}

// TestFrontendZeroAllocs pins the steady-state push path at zero
// allocations.
func TestFrontendZeroAllocs(t *testing.T) {
	cfg := DefaultMFCCConfig(16000)
	f := NewFrontend(cfg, 49)
	rng := rand.New(rand.NewSource(43))
	chunk := make([]float64, 4000)
	for i := range chunk {
		chunk[i] = rng.NormFloat64()
	}
	dst := make([]float32, 49*cfg.NumCoeffs)
	f.Push(make([]float64, 16000)) // warm up past the first window
	allocs := testing.AllocsPerRun(20, func() {
		f.Push(chunk)
		f.Window(dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push allocates %.1f/op, want 0", allocs)
	}
}
