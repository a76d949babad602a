// Package dsp implements the signal-processing frontend used for
// keyword-spotting: a radix-2 FFT with a real-input power spectrum,
// windowing, mel filterbanks, the DCT-II, and the MFCC pipeline that
// converts 1-second waveforms into the paper's 49×10 MFCC input features
// (40 ms frames with a 20 ms stride, 10 cepstral coefficients). Batch
// extraction (MFCC) and streaming extraction (Frontend) run one per-frame
// kernel over tables shared per configuration.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/cpuid"
)

// fftPlan holds the immutable tables of an n-point radix-2 transform: the
// bit-reversal permutation and every stage's twiddles, read from the table
// rather than grown by a w *= wl recurrence. The twiddles run one stage past
// n, so the same plan also drives the 2n-point real-input transform (n-point
// complex FFT plus a split pass, see realPower).
type fftPlan struct {
	rev []int32      // rev[i] is i with its log2(n) bits reversed
	tw  []complex128 // tw[h+j] = e^{-iπj/h} for h = 1, 2, 4, …, n and j < h
}

var plans = struct {
	sync.Mutex
	m map[int]*fftPlan
}{m: map[int]*fftPlan{}}

// planFor returns the shared plan for an n-point transform (n a power of
// two, n ≥ 1), building it on first use. Plans are never mutated after
// publication, so any number of goroutines may run one at once.
func planFor(n int) *fftPlan {
	plans.Lock()
	defer plans.Unlock()
	if p, ok := plans.m[n]; ok {
		return p
	}
	p := &fftPlan{rev: make([]int32, n), tw: make([]complex128, 2*n)}
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		p.rev[i] = int32(j)
	}
	for h := 1; h <= n; h <<= 1 {
		for j := 0; j < h; j++ {
			s, c := math.Sincos(-math.Pi * float64(j) / float64(h))
			p.tw[h+j] = complex(c, s)
		}
	}
	plans.m[n] = p
	return p
}

// butterflies runs the Danielson-Lanczos stages over x, which must hold the
// input in bit-reversed order; len(x) is the plan size. This is the
// package's only butterfly loop: FFT and every power spectrum run on it.
// With avx2 set (cpuid.AVX2 everywhere but the kernels' tests), plans of
// minStagesAVX2 points or more run their twiddled stages on the AVX2 kernel
// (fft_amd64.s); smaller plans and the first two stages always run in Go.
func (p *fftPlan) butterflies(x []complex128, avx2 bool) {
	n := len(x)
	if n == 2 {
		x[0], x[1] = x[0]+x[1], x[0]-x[1]
		return
	}
	// The first two stages in one pass: their only twiddles are 1 and −i.
	for i := 0; i+3 < n; i += 4 {
		a0, a1 := x[i]+x[i+1], x[i]-x[i+1]
		a2, a3 := x[i+2]+x[i+3], x[i+2]-x[i+3]
		a3 = complex(imag(a3), -real(a3))
		x[i], x[i+1], x[i+2], x[i+3] = a0+a2, a1+a3, a0-a2, a1-a3
	}
	if avx2 && n >= minStagesAVX2 {
		stagesAVX2(x, p.tw[:n])
		return
	}
	stagesGo(x, p.tw)
}

// Smallest plan sizes the AVX2 kernels take: the stage kernel needs a
// twiddled stage (h = 4 < n), the split kernel a whole pair of bins k, k+1
// ≤ n/2.
const minStagesAVX2, minSplitAVX2 = 8, 4

// stagesGo runs the twiddled stages h = 4, 8, …, n/2 of the n-point
// transform over x (n = len(x)) with the plan's twiddles tw: the portable
// path and the AVX2 kernel's oracle.
func stagesGo(x, tw []complex128) {
	n := len(x)
	for h := 4; h < n; h <<= 1 {
		w := tw[h : 2*h]
		for i := 0; i < n; i += 2 * h {
			a := x[i : i+h]
			b := x[i+h : i+2*h]
			w := w[:len(a)]
			b = b[:len(a)]
			for j := range a {
				u, v := a[j], b[j]*w[j]
				a[j], b[j] = u+v, u-v
			}
		}
	}
}

// realPower writes the power spectrum |X[k]|², k = 0..n, of the real frame
// x zero-padded (or truncated) to 2n points, where n is the plan size. It
// packs even samples as real parts and odd samples as imaginary parts of an
// n-point sequence, placed straight into bit-reversed order in buf (len n),
// transforms it, and splits the result: with Z the packed transform and
// W = e^{-iπ/n},
//
//	X[k] = ½(Z[k] + Z*[n−k]) − ½i·W^k·(Z[k] − Z*[n−k]).
//
// avx2 picks the kernels as in butterflies; plans of minSplitAVX2 points or
// more also run the split pass on the AVX2 kernel.
func (p *fftPlan) realPower(dst []float64, buf []complex128, x []float64, avx2 bool) {
	n := len(buf)
	if len(x) > 2*n {
		x = x[:2*n]
	}
	pairs := len(x) / 2
	for i, r := range p.rev[:pairs] {
		buf[r] = complex(x[2*i], x[2*i+1])
	}
	i := pairs
	if len(x)%2 == 1 {
		buf[p.rev[i]] = complex(x[2*i], 0)
		i++
	}
	for ; i < n; i++ {
		buf[p.rev[i]] = 0
	}
	p.butterflies(buf, avx2)

	re, im := real(buf[0]), imag(buf[0])
	dst[0] = (re + im) * (re + im)
	dst[n] = (re - im) * (re - im)
	if avx2 && n >= minSplitAVX2 {
		splitAVX2(dst[:n], buf, p.tw[n:2*n])
		return
	}
	splitGo(dst, buf, p.tw[n:2*n])
}

// splitGo writes bins 1..n−1 of realPower's spectrum from the packed
// transform buf (n = len(buf)) and the twiddles w[k] = W^k: the portable
// path and the AVX2 kernel's oracle. Bins k and n−k share their two inputs,
// and W^(n−k) = −conj(W^k), so with e = Z[k]+Z*[n−k] and
// o = W^k·(Z[k]−Z*[n−k]) one pass yields X[k] = ½(e − i·o) and
// X[n−k] = ½(e* − i·o*). At k = n/2 both writes land on one bin, and the
// second stands.
func splitGo(dst []float64, buf, w []complex128) {
	n := len(buf)
	for k := 1; k <= n/2; k++ {
		a, b := buf[k], buf[n-k]
		b = complex(real(b), -imag(b))
		e := a + b
		o := (a - b) * w[k]
		xr, xi := real(e)+imag(o), imag(e)-real(o)
		dst[k] = (xr*xr + xi*xi) * 0.25
		xr, xi = real(e)-imag(o), imag(e)+real(o)
		dst[n-k] = (xr*xr + xi*xi) * 0.25
	}
}

// powerSpectrum is the one-sided power spectrum of frame zero-padded to
// fftSize (a power of two) into dst (len fftSize/2+1), with buf
// (len fftSize/2) as FFT workspace and p = planFor(fftSize/2); avx2 picks
// the kernels as in realPower.
func powerSpectrum(dst []float64, buf []complex128, p *fftPlan, frame []float64, avx2 bool) {
	if len(dst) == 1 { // fftSize 1: the spectrum is the lone sample's power
		dst[0] = 0
		if len(frame) > 0 {
			dst[0] = frame[0] * frame[0]
		}
		return
	}
	p.realPower(dst, buf[:len(dst)-1], frame, avx2)
}

// FFT computes the in-place radix-2 Cooley-Tukey FFT of x. The length of x
// must be a power of two; FFT panics otherwise.
func FFT(x []complex128) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	p := planFor(n)
	for i, j := range p.rev {
		if int32(i) < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x, cpuid.AVX2)
}

// IFFT computes the inverse FFT of x in place (normalised by 1/n).
func IFFT(x []complex128) {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
}

// FFTKernel reports which kernels the real-input transform's twiddled
// stages and split pass take in this build on this CPU: "avx2" for the
// amd64 assembly (fft_amd64.s), "go" for the portable loops.
func FFTKernel() string {
	if cpuid.AVX2 {
		return "avx2"
	}
	return "go"
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// PowerSpectrum returns the one-sided power spectrum |X[k]|² for
// k = 0..n/2 of the real signal frame, zero-padded to fftSize, which must be
// a power of two. It runs the real-input transform MFCC uses.
func PowerSpectrum(frame []float64, fftSize int) []float64 {
	if fftSize&(fftSize-1) != 0 || fftSize == 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", fftSize))
	}
	out := make([]float64, fftSize/2+1)
	powerSpectrum(out, make([]complex128, fftSize/2), planFor(fftSize/2), frame, cpuid.AVX2)
	return out
}

// HannWindow returns an n-point periodic Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(n))
	}
	return w
}
