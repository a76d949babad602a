package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cpuid"
)

// naiveDFT is an O(n²) reference DFT.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		if !complexClose(got, want, 1e-8*float64(n)) {
			t.Fatalf("FFT mismatch at n=%d", n)
		}
	}
}

func TestFFTPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FFT(make([]complex128, 12))
}

// Property: IFFT(FFT(x)) == x.
func TestQuickFFTInverseRoundTrip(t *testing.T) {
	f := func(re, im [16]int8) bool {
		x := make([]complex128, 16)
		for i := range x {
			x[i] = complex(float64(re[i])/16, float64(im[i])/16)
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		return complexClose(x, y, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval's theorem — sum |x|² == (1/n) sum |X|².
func TestQuickFFTParseval(t *testing.T) {
	f := func(re [32]int8) bool {
		x := make([]complex128, 32)
		var timeE float64
		for i := range x {
			x[i] = complex(float64(re[i])/32, 0)
			timeE += real(x[i]) * real(x[i])
		}
		FFT(x)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(len(x))
		return math.Abs(timeE-freqE) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFT is linear — FFT(a·x + y) == a·FFT(x) + FFT(y).
func TestQuickFFTLinearity(t *testing.T) {
	f := func(xb, yb [8]int8, ab int8) bool {
		a := complex(float64(ab)/16, 0)
		x := make([]complex128, 8)
		y := make([]complex128, 8)
		comb := make([]complex128, 8)
		for i := range x {
			x[i] = complex(float64(xb[i])/16, 0)
			y[i] = complex(float64(yb[i])/16, 0)
			comb[i] = a*x[i] + y[i]
		}
		FFT(x)
		FFT(y)
		FFT(comb)
		for i := range x {
			x[i] = a*x[i] + y[i]
		}
		return complexClose(comb, x, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerSpectrumOfSine(t *testing.T) {
	// A pure sine at bin 8 of a 64-point FFT must concentrate its energy there.
	const n = 64
	frame := make([]float64, n)
	for i := range frame {
		frame[i] = math.Sin(2 * math.Pi * 8 * float64(i) / n)
	}
	spec := PowerSpectrum(frame, n)
	peak := 0
	for k := 1; k < len(spec); k++ {
		if spec[k] > spec[peak] {
			peak = k
		}
	}
	if peak != 8 {
		t.Fatalf("sine energy peaked at bin %d, want 8", peak)
	}
}

func TestHannWindowEndpoints(t *testing.T) {
	w := HannWindow(64)
	if w[0] != 0 {
		t.Fatalf("Hann[0]=%v, want 0", w[0])
	}
	if math.Abs(w[32]-1) > 1e-12 {
		t.Fatalf("Hann midpoint=%v, want 1", w[32])
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 160: 256, 640: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

// hostileSample draws a value for the kernel parity test: a random sign
// and a magnitude log-uniform over 1e−10…1e10, with ±0 and subnormals
// mixed in.
func hostileSample(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(12) {
	case 0:
		v = 0
	case 1:
		v = float64(1+rng.Intn(1<<20)) * math.SmallestNonzeroFloat64 // subnormal
	default:
		v = math.Pow(10, -10+20*rng.Float64())
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// firstBitDiff returns the first index where a and b differ in bits, or −1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// complexFloats views a complex128 slice as its interleaved parts.
func complexFloats(x []complex128) []float64 {
	f := make([]float64, 0, 2*len(x))
	for _, v := range x {
		f = append(f, real(v), imag(v))
	}
	return f
}

// TestFFTKernelsMatchGo pins the AVX2 transform kernels bit for bit
// (math.Float64bits, so ±0 and every rounding count) against the Go loops
// they replace: the stage and split kernels alone at every plan size they
// take up to 1024, the dispatching real-input transform at every FFT size
// 1–2048 (plan sizes 1–1024, where sizes the kernels refuse take the Go
// loops), and MFCC.Compute against a Go-loop rerun of its frames at 4, 8 and
// 16 kHz. Inputs span magnitudes 1e−10…1e10 with ±0 and subnormals, frames
// come in full, odd and short lengths, and canaries past every output must
// survive. ci.sh also runs it built for GOAMD64=v3, where the compiler
// could fuse the oracle's multiply-adds.
func TestFFTKernelsMatchGo(t *testing.T) {
	if !cpuid.AVX2 {
		t.Skip("no AVX2 kernels in this build or on this CPU")
	}
	const pad = 4
	canary := math.Float64frombits(0x7ff8_0000_dead_beef)
	rng := rand.New(rand.NewSource(17))

	for n := minStagesAVX2; n <= 1024; n <<= 1 {
		p := planFor(n)
		for trial := 0; trial < 3; trial++ {
			want := make([]complex128, n+pad)
			for i := range want {
				want[i] = complex(canary, canary)
				if i < n {
					want[i] = complex(hostileSample(rng), hostileSample(rng))
				}
			}
			got := append([]complex128(nil), want...)
			stagesGo(want[:n], p.tw)
			stagesAVX2(got[:n], p.tw[:n])
			if i := firstBitDiff(complexFloats(got), complexFloats(want)); i >= 0 {
				t.Fatalf("stages n=%d trial %d: part %d is %v, Go %v", n, trial, i, complexFloats(got)[i], complexFloats(want)[i])
			}
		}
	}

	for n := minSplitAVX2; n <= 1024; n <<= 1 {
		p := planFor(n)
		for trial := 0; trial < 3; trial++ {
			buf := make([]complex128, n)
			for i := range buf {
				buf[i] = complex(hostileSample(rng), hostileSample(rng))
			}
			want := make([]float64, n+pad)
			for i := range want {
				want[i] = canary
			}
			got := append([]float64(nil), want...)
			splitGo(want[:n], buf, p.tw[n:2*n])
			splitAVX2(got[:n], buf, p.tw[n:2*n])
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("split n=%d trial %d: bin %d is %v, Go %v", n, trial, i, got[i], want[i])
			}
		}
	}

	for fftSize := 1; fftSize <= 2048; fftSize <<= 1 {
		p := planFor(max(fftSize/2, 1))
		bins := fftSize/2 + 1
		for _, fl := range []int{fftSize, fftSize - 1, fftSize/2 + 1, 1, 0} {
			frame := make([]float64, fl)
			for i := range frame {
				frame[i] = hostileSample(rng)
			}
			var spec [2][]float64
			var work [2][]complex128
			for side, avx2 := range []bool{false, true} {
				spec[side] = make([]float64, bins+pad)
				for i := range spec[side] {
					spec[side][i] = canary
				}
				work[side] = make([]complex128, max(fftSize/2, 1))
				powerSpectrum(spec[side][:bins], work[side], p, frame, avx2)
			}
			if i := firstBitDiff(spec[1], spec[0]); i >= 0 {
				t.Fatalf("fftSize %d frame %d: bin %d is %v, Go %v", fftSize, fl, i, spec[1][i], spec[0][i])
			}
			if i := firstBitDiff(complexFloats(work[1]), complexFloats(work[0])); i >= 0 {
				t.Fatalf("fftSize %d frame %d: transform part %d differs from Go", fftSize, fl, i)
			}
		}
	}

	for _, rate := range []int{4000, 8000, 16000} {
		cfg := DefaultMFCCConfig(rate)
		wave := make([]float64, rate+cfg.Stride()/2)
		for i := range wave {
			wave[i] = 0.3 * rng.NormFloat64()
			if i%7 == 0 {
				wave[i] = hostileSample(rng)
			}
		}
		got := NewMFCC(cfg).Compute(wave).Data
		k := newKernel(cfg)
		fl, st, nc := cfg.FrameLen(), cfg.Stride(), cfg.NumCoeffs
		want := make([]float32, len(got))
		for f := 0; f < cfg.NumFrames(len(wave)); f++ {
			k.windowFrame(wave[f*st:f*st+fl], nil)
			powerSpectrum(k.spec, k.buf, k.t.plan, k.frame, false)
			k.melSums()
			k.logDCT(want[f*nc : (f+1)*nc])
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("rate %d feature %d: %v, Go loops %v", rate, i, got[i], want[i])
			}
		}
	}
}
