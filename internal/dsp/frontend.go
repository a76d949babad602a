package dsp

// Frontend is the incremental MFCC featuriser for streaming inference: it
// consumes audio samples as they arrive and computes MFCC features only for
// each newly completed analysis frame, instead of re-featurising a whole
// sliding window every hop. At the paper's 40 ms/20 ms framing a 240 ms hop
// completes 12 frames where the batch path featurises all 49.
//
// Frames are anchored to the absolute stream position: frame k covers
// samples [k·stride, k·stride+frameLen). A batch MFCC.Compute over a window
// whose start is a multiple of the stride produces exactly these frames, and
// both run the same per-frame kernel over the same shared tables, so the
// frontend's feature ring is bit-identical to batch featurisation for
// stride-aligned windows (TestFrontendMatchesBatch pins this over random
// chunkings). Callers that hop on a non-stride-aligned cadence would sample
// a different frame grid; the streaming Detector therefore snaps its hop to
// the stride grid in incremental mode.
//
// A Frontend is single-stream state and not safe for concurrent use. It owns
// its sample ring, feature ring and per-frame scratch; the window, FFT plan,
// mel bands and DCT basis are shared with every MFCC and Frontend of the
// same configuration. Steady-state pushes allocate nothing.
type Frontend struct {
	k         kernel
	winFrames int

	ring       []float64 // last frameLen samples
	rpos       int       // next ring write index
	untilFrame int       // samples until the next frame completes

	feats []float32 // feature ring, winFrames × numCoeffs
	total int64     // frames completed since construction or Reset
}

// NewFrontend builds an incremental featuriser whose feature ring holds
// winFrames frames — the classifier window (49 for the paper's one-second
// window).
func NewFrontend(cfg MFCCConfig, winFrames int) *Frontend {
	fl := cfg.FrameLen()
	return &Frontend{
		k:          newKernel(cfg),
		winFrames:  winFrames,
		ring:       make([]float64, fl),
		untilFrame: fl,
		feats:      make([]float32, winFrames*cfg.NumCoeffs),
	}
}

// Config returns the frontend's MFCC configuration.
func (f *Frontend) Config() MFCCConfig { return f.k.t.cfg }

// WindowFrames returns the feature ring's capacity in frames.
func (f *Frontend) WindowFrames() int { return f.winFrames }

// PushSample consumes one sample and reports whether it completed a frame
// (whose features are now the newest ring entry).
func (f *Frontend) PushSample(s float64) bool {
	f.ring[f.rpos] = s
	f.rpos++
	if f.rpos == len(f.ring) {
		f.rpos = 0
	}
	f.untilFrame--
	if f.untilFrame > 0 {
		return false
	}
	f.untilFrame = f.k.t.cfg.Stride()
	f.completeFrame()
	return true
}

// Push consumes a chunk of samples and returns how many frames it completed.
func (f *Frontend) Push(samples []float64) int {
	n := 0
	for _, s := range samples {
		if f.PushSample(s) {
			n++
		}
	}
	return n
}

// TotalFrames returns the number of frames completed since construction or
// the last Reset. The difference between two calls is the nNew a hop should
// pass to the incremental engine path.
func (f *Frontend) TotalFrames() int64 { return f.total }

// Window copies the most recent winFrames frames, oldest first, into dst
// (len winFrames·numCoeffs) — the classifier's input layout. It returns
// false while fewer than winFrames frames exist.
func (f *Frontend) Window(dst []float32) bool {
	if f.total < int64(f.winFrames) {
		return false
	}
	c := f.k.t.cfg.NumCoeffs
	for i := 0; i < f.winFrames; i++ {
		slot := int((f.total + int64(i)) % int64(f.winFrames))
		copy(dst[i*c:(i+1)*c], f.feats[slot*c:(slot+1)*c])
	}
	return true
}

// Reset discards all stream state: the next frame completes a full frameLen
// after the first post-reset sample, anchored at stream position zero.
func (f *Frontend) Reset() {
	f.rpos = 0
	f.untilFrame = len(f.ring)
	f.total = 0
	for i := range f.ring {
		f.ring[i] = 0
	}
}

// completeFrame featurises the frameLen samples ending at the current
// position into the next feature-ring slot, through the kernel MFCC.Compute
// runs.
func (f *Frontend) completeFrame() {
	c := f.k.t.cfg.NumCoeffs
	slot := int(f.total % int64(f.winFrames))
	f.k.run(f.feats[slot*c:(slot+1)*c], f.ring[f.rpos:], f.ring[:f.rpos])
	f.total++
}
