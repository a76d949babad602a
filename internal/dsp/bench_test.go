package dsp

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFrameStages times each stage of the per-frame MFCC kernel —
// window, real-input FFT power spectrum, mel band sums, log+DCT — and the
// whole frame, at the streaming (16 kHz) and serving (4 kHz) rates, so a
// frontend cost ledger can name the dominant stage. Each stage runs on the
// previous stage's real output.
func BenchmarkFrameStages(b *testing.B) {
	for _, rate := range []int{16000, 4000} {
		cfg := DefaultMFCCConfig(rate)
		k := newKernel(cfg)
		rng := rand.New(rand.NewSource(5))
		x := make([]float64, cfg.FrameLen())
		for i := range x {
			x[i] = 0.4 * rng.NormFloat64()
		}
		dst := make([]float32, cfg.NumCoeffs)
		k.windowFrame(x, nil)
		k.spectrum()
		k.melSums()
		sums := append([]float64(nil), k.mel...)
		stages := []struct {
			name string
			fn   func()
		}{
			{"window", func() { k.windowFrame(x, nil) }},
			{"fft", k.spectrum},
			{"mel", k.melSums},
			// logDCT takes logs in place, so restore the mel sums each time;
			// copying 40 floats is small next to 40 logs and a 400-term DCT.
			{"logdct", func() { copy(k.mel, sums); k.logDCT(dst) }},
			{"frame", func() { k.run(dst, x, nil) }},
		}
		for _, st := range stages {
			b.Run(fmt.Sprintf("%dHz/%s", rate, st.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st.fn()
				}
			})
		}
	}
}
