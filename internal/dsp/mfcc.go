package dsp

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// MFCCConfig describes the MFCC feature extraction pipeline. The defaults
// (DefaultMFCCConfig) match the keyword-spotting setup in the paper:
// a 40 ms analysis frame with a 20 ms stride over 1 s of audio, 40 mel
// filters, and 10 cepstral coefficients, yielding a 49×10 feature image.
type MFCCConfig struct {
	SampleRate int     // samples per second
	FrameMs    int     // analysis window length in milliseconds
	StrideMs   int     // hop between frames in milliseconds
	NumMel     int     // number of mel filterbank channels
	NumCoeffs  int     // number of cepstral coefficients kept
	LowFreqHz  float64 // filterbank lower edge
	HighFreqHz float64 // filterbank upper edge (0 = Nyquist)
}

// DefaultMFCCConfig returns the paper's configuration at the given sample
// rate. Any sample rate works; 49 frames × 10 coefficients is invariant to it
// because frame/stride are expressed in milliseconds.
func DefaultMFCCConfig(sampleRate int) MFCCConfig {
	return MFCCConfig{
		SampleRate: sampleRate,
		FrameMs:    40,
		StrideMs:   20,
		NumMel:     40,
		NumCoeffs:  10,
		LowFreqHz:  20,
		HighFreqHz: 0,
	}
}

// FrameLen returns the analysis frame length in samples.
func (c MFCCConfig) FrameLen() int { return c.SampleRate * c.FrameMs / 1000 }

// Stride returns the hop size in samples.
func (c MFCCConfig) Stride() int { return c.SampleRate * c.StrideMs / 1000 }

// NumFrames returns how many frames a signal of n samples produces.
func (c MFCCConfig) NumFrames(n int) int {
	fl, st := c.FrameLen(), c.Stride()
	if n < fl {
		return 0
	}
	return (n-fl)/st + 1
}

// melScale converts a frequency in Hz to mels.
func melScale(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// melInv converts mels back to Hz.
func melInv(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank builds a triangular mel filterbank matrix of shape
// [numMel][fftSize/2+1]. Each row integrates the power spectrum over one
// triangular mel band.
func MelFilterbank(cfg MFCCConfig, fftSize int) [][]float64 {
	high := cfg.HighFreqHz
	if high <= 0 {
		high = float64(cfg.SampleRate) / 2
	}
	nBins := fftSize/2 + 1
	lowMel, highMel := melScale(cfg.LowFreqHz), melScale(high)
	points := make([]float64, cfg.NumMel+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(cfg.NumMel+1)
		points[i] = melInv(mel) / float64(cfg.SampleRate) * float64(fftSize)
	}
	fb := make([][]float64, cfg.NumMel)
	for m := 0; m < cfg.NumMel; m++ {
		row := make([]float64, nBins)
		left, center, right := points[m], points[m+1], points[m+2]
		for k := 0; k < nBins; k++ {
			f := float64(k)
			switch {
			case f > left && f <= center && center > left:
				row[k] = (f - left) / (center - left)
			case f > center && f < right && right > center:
				row[k] = (right - f) / (right - center)
			}
		}
		fb[m] = row
	}
	return fb
}

// dctII is a tabulated orthonormal DCT-II of n inputs keeping the first
// numCoeffs outputs. The basis holds exactly the math.Cos values the
// textbook sum evaluates, so tabulating changes no bits.
type dctII struct {
	n     int
	basis []float64 // basis[k·n+i] = cos(π·k·(i+½)/n)
	scale []float64 // √(1/n) for k = 0, √(2/n) otherwise
}

func newDCTII(n, numCoeffs int) dctII {
	d := dctII{n: n, basis: make([]float64, numCoeffs*n), scale: make([]float64, numCoeffs)}
	for k := range d.scale {
		for i := 0; i < n; i++ {
			d.basis[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
		if k == 0 {
			d.scale[k] = math.Sqrt(1 / float64(n))
		} else {
			d.scale[k] = math.Sqrt(2 / float64(n))
		}
	}
	return d
}

// coeff returns DCT-II coefficient k of x (len n).
func (d dctII) coeff(k int, x []float64) float64 {
	row := d.basis[k*d.n:][:len(x)]
	var s float64
	for i, v := range x {
		s += v * row[i]
	}
	return s * d.scale[k]
}

// DCT2 computes the orthonormal DCT-II of x, keeping the first numCoeffs
// coefficients. This is the standard cepstral transform.
func DCT2(x []float64, numCoeffs int) []float64 {
	d := newDCTII(len(x), numCoeffs)
	out := make([]float64, numCoeffs)
	for k := range out {
		out[k] = d.coeff(k, x)
	}
	return out
}

// melBand is one triangular mel filter restricted to its nonzero bins.
// A filter's weights are strictly positive on the open interval between its
// outer edge points and zero elsewhere, so the band is one contiguous run
// and its sum adds exactly the terms of a dense loop that skips zero
// weights, in the same order.
type melBand struct {
	lo int       // first bin with a nonzero weight
	w  []float64 // weights of bins lo, lo+1, …
}

// tables are the immutable per-configuration MFCC tables: Hann window, FFT
// plan, sparse mel bands and DCT basis. One set serves every MFCC and
// Frontend with the same MFCCConfig (see tablesFor); instances own only
// scratch.
type tables struct {
	cfg     MFCCConfig
	fftSize int
	window  []float64
	plan    *fftPlan // fftSize/2-point plan for the real-input transform
	bands   []melBand
	dct     dctII
}

var memo = struct {
	sync.Mutex
	m map[MFCCConfig]*tables
}{m: map[MFCCConfig]*tables{}}

// tablesFor returns the shared tables for cfg, building them on first use.
func tablesFor(cfg MFCCConfig) *tables {
	memo.Lock()
	defer memo.Unlock()
	t, ok := memo.m[cfg]
	if !ok {
		t = newTables(cfg)
		memo.m[cfg] = t
	}
	return t
}

func newTables(cfg MFCCConfig) *tables {
	fftSize := NextPow2(cfg.FrameLen())
	t := &tables{
		cfg:     cfg,
		fftSize: fftSize,
		window:  HannWindow(cfg.FrameLen()),
		plan:    planFor(fftSize / 2),
		bands:   make([]melBand, cfg.NumMel),
		dct:     newDCTII(cfg.NumMel, cfg.NumCoeffs),
	}
	for m, row := range MelFilterbank(cfg, fftSize) {
		lo, hi := len(row), 0
		for k, w := range row {
			if w != 0 {
				lo, hi = min(lo, k), k+1
			}
		}
		if hi == 0 { // no bin falls inside the filter
			lo = 0
		}
		t.bands[m] = melBand{lo: lo, w: append([]float64(nil), row[lo:hi]...)}
	}
	return t
}

// kernel is the per-frame MFCC pipeline that MFCC.Compute and Frontend
// both run: Hann window → real-input FFT power spectrum → mel sums over each
// band's nonzero bins → log(e+1e-10) → tabulated DCT-II. Because batch and
// streaming featurisation share every step, a frame's features do not
// depend on which of the two computed it. The kernel reads the shared
// tables and writes only its own scratch, so it serves one goroutine at a
// time.
type kernel struct {
	t     *tables
	frame []float64    // windowed frame, frameLen samples
	buf   []complex128 // packed fftSize/2-point FFT workspace
	spec  []float64    // power spectrum, fftSize/2+1 bins
	mel   []float64    // mel energies, then their logs
}

func newKernel(cfg MFCCConfig) kernel {
	t := tablesFor(cfg)
	return kernel{
		t:     t,
		frame: make([]float64, len(t.window)),
		buf:   make([]complex128, t.fftSize/2),
		spec:  make([]float64, t.fftSize/2+1),
		mel:   make([]float64, len(t.bands)),
	}
}

// run featurises one analysis frame into dst (len NumCoeffs). The frame is
// the concatenation a‖b of frameLen samples: a contiguous frame passes b
// empty, a ring buffer its two wrapped segments.
func (k *kernel) run(dst []float32, a, b []float64) {
	k.windowFrame(a, b)
	k.spectrum()
	k.melSums()
	k.logDCT(dst)
}

func (k *kernel) windowFrame(a, b []float64) {
	w := k.t.window[:len(a)+len(b)]
	f := k.frame[:len(w)]
	for i, v := range a {
		f[i] = v * w[i]
	}
	w, f = w[len(a):], f[len(a):]
	for i, v := range b {
		f[i] = v * w[i]
	}
}

func (k *kernel) spectrum() { powerSpectrum(k.spec, k.buf, k.t.plan, k.frame) }

func (k *kernel) melSums() {
	for m, band := range k.t.bands {
		s := k.spec[band.lo:][:len(band.w)]
		var e float64
		for i, w := range band.w {
			e += w * s[i]
		}
		k.mel[m] = e
	}
}

func (k *kernel) logDCT(dst []float32) {
	for i, e := range k.mel {
		k.mel[i] = math.Log(e + 1e-10)
	}
	for c := range dst {
		dst[c] = float32(k.t.dct.coeff(c, k.mel))
	}
}

// MFCC is a reusable batch MFCC extractor. Construct with NewMFCC; Compute
// converts a waveform into a [numFrames, numCoeffs] tensor. Every extractor
// with the same configuration shares one set of tables; each owns only the
// per-frame scratch, so an MFCC is not safe for concurrent use — give each
// goroutine its own.
type MFCC struct {
	k kernel
}

// NewMFCC returns an extractor for the given configuration.
func NewMFCC(cfg MFCCConfig) *MFCC { return &MFCC{k: newKernel(cfg)} }

// Config returns the extractor's configuration.
func (m *MFCC) Config() MFCCConfig { return m.k.t.cfg }

// Compute converts the waveform into MFCC features of shape
// [numFrames, numCoeffs]. Frames beyond the end of the signal are dropped.
// The returned tensor is the only allocation.
func (m *MFCC) Compute(wave []float64) *tensor.Tensor {
	cfg := m.k.t.cfg
	fl, st, nc := cfg.FrameLen(), cfg.Stride(), cfg.NumCoeffs
	nFrames := cfg.NumFrames(len(wave))
	out := tensor.New(nFrames, nc)
	for f := 0; f < nFrames; f++ {
		m.k.run(out.Data[f*nc:(f+1)*nc], wave[f*st:f*st+fl], nil)
	}
	return out
}
