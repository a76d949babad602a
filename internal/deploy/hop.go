package deploy

import "fmt"

// Incremental hop inference: temporal caching across overlapping streaming
// windows.
//
// A streaming detector re-classifies a sliding one-second window every hop,
// but consecutive windows share all rows except the hop stride: at the
// default 250 ms hop, ~75% of the 49×10 MFCC image — and therefore most of
// every convolution output — is the previous window's content shifted up.
// A HopState caches the quantised input image and every conv layer's output
// image between calls. Each hop it:
//
//  1. shifts every cached image up by the layer's row shift (the input
//     moves nNew rows, a stride-s conv's output moves nNew/s rows), and
//  2. recomputes only the output rows the shift cannot preserve — the
//     top band whose receptive field straddles the (moving) zero-pad
//     boundary and the bottom band that sees the new frames — before
//  3. re-running pooling and the tree head in full (they are ~2% of the
//     per-hop cost).
//
// Shift rule. Let [a, b) be the clean interval of a layer's input: the rows
// whose values equal the previous input shifted up by s rows. Output row j
// of a stride-st, height-kh, pad-p conv reads input rows [j·st−p, j·st−p+kh).
// The cached (shifted) output row is reusable iff that whole window lies in
// [a, b): no pad coordinate is read (the old computation read real rows
// there) and every row read is itself clean. Hence rows
//
//	aOut = ⌈(a+p)/st⌉ … bOut = ⌊(b+p−kh)/st⌋ + 1
//
// are kept, [0,aOut) and [bOut,outH) are recomputed, and [aOut,bOut)
// becomes the next layer's clean interval. A shift that is not a multiple
// of the conv stride (or an empty clean interval) degrades that layer and
// everything downstream to a full recompute of the whole output as one
// segment. A frame pass is exactly that: the engine's one driver (forward,
// arena.go) starts a frame, and a cold or invalid hop, from an empty
// interval, so the full path and the incremental path share every
// instruction. An unmoved, wholly clean input (a repeated window, nNew = 0)
// leaves every row current.
//
// Exactness. A hop band runs the same conv-layer kernel a frame runs over
// its whole plane (runBand, arena.go), fed a band-local im2col matrix at the
// padded stride pad8(nBand); depthwise bands run the fused R = 1 kernel over
// the groups the band touches (dwSparse). Every kernel is position-wise
// exact — int32 accumulation is associative mod 2³², and each output
// position's sum walks the same compiled nonzero indices in the same order
// regardless of which other positions share the dispatch — so a recomputed
// band row is bit-identical to the same row of a full-window Infer, and a
// reused row is bit-identical by induction. TestInferHopMatchesFullStream
// and the property suite in hop_test.go pin the claim over long streams.
//
// A HopState owns all mutable scratch in its hop arena — one image per conv
// (the cache), the band im2col and scatter row, and the rows, accumulators
// and tree buffers — so any number of HopStates may run concurrently on one
// engine, the same contract as InferBatch. A single HopState is not safe
// for concurrent use. Steady-state hops allocate nothing.

// HopStats counts a HopState's work since construction.
type HopStats struct {
	Hops            int64 // InferHop calls completed
	FullRecomputes  int64 // hops that ran the cold/invalid full path
	ColumnsComputed int64 // conv output positions recomputed across all layers
}

// HopState is the per-stream temporal cache for incremental hop inference.
// Obtain one with Engine.NewHopState, feed it consecutive windows through
// Engine.InferHop, and Release it when the stream closes. Invalidate
// discards the cache (the next hop recomputes in full) — callers must do
// that whenever the stream discontinues (gap concealment, seek, reset),
// since the caller contract is that each window's leading rows equal the
// previous window's trailing rows.
type HopState struct {
	e     *Engine
	a     *arena // a hop arena: the cached input and conv images and the band scratch
	valid bool

	lastFull bool
	stats    HopStats
}

// Invalidate discards all cached temporal state. The next hop on this state
// recomputes the full window. Call on any stream discontinuity.
func (hs *HopState) Invalidate() { hs.valid = false }

// LastFull reports whether the most recent hop fell back to a full-window
// recompute (cold cache, invalidation, policy change, or nNew ≥ Frames).
func (hs *HopState) LastFull() bool { return hs.lastFull }

// Stats returns the state's work counters.
func (hs *HopState) Stats() HopStats { return hs.stats }

// NewHopState returns a hop state for incremental streaming inference on
// this engine, reusing a released one when available. States may be used
// concurrently with each other and with InferBatch; a single state must not
// be shared between goroutines.
func (e *Engine) NewHopState() *HopState {
	e.ensureCompiled()
	if v := e.hopStates.Get(); v != nil {
		hs := v.(*HopState)
		hs.Invalidate()
		return hs
	}
	return &HopState{e: e, a: newArena(e, true)}
}

// Release invalidates the state and returns it to the engine's pool.
func (hs *HopState) Release() {
	hs.Invalidate()
	hs.e.hopStates.Put(hs)
}

// InferHop classifies one hop of a sliding window through the integer path
// at the engine's current policy, bit-exact with a full-window Infer on the
// same window at a fraction of the work. x is the full current window
// (Frames × Coeffs); nNew is how many trailing frame rows are new since the
// previous call — the caller guarantees x's leading Frames−nNew rows equal
// the previous window's trailing rows. The scores slice is state-owned,
// valid until the next hop on hs.
func (e *Engine) InferHop(hs *HopState, x []float32, nNew int) (scores []int32, class int) {
	if hs.e != e {
		panic("deploy: HopState used with a different engine")
	}
	if len(x) != int(e.Frames*e.Coeffs) {
		panic(fmt.Sprintf("deploy: input length %d, want %d", len(x), e.Frames*e.Coeffs))
	}
	return hs.infer(x, nNew)
}

// infer runs one hop. See the file comment for the algorithm: a cold or
// invalid state, or a window with nothing in common with the last one, is a
// frame pass on the hop arena.
func (hs *HopState) infer(x []float32, nNew int) ([]int32, int) {
	e := hs.e
	if e.Policy != hs.a.pol {
		// Cached activations are policy-specific: rebuild the arena at the
		// engine's policy and recompute in full.
		hs.a = newArena(e, true)
		hs.valid = false
	}
	full := !hs.valid || nNew < 0 || nNew >= int(e.Frames)
	if full {
		nNew = int(e.Frames)
	}
	hs.valid = false // poisoned until the hop completes
	o := e.obs
	root := o.openHop()
	sc, computed := e.forward(hs.a, x, nNew, root)
	hs.valid = true
	hs.lastFull = full
	hs.stats.Hops++
	hs.stats.ColumnsComputed += computed
	if full {
		hs.stats.FullRecomputes++
	}
	o.closeHop(root, full, computed)
	return sc, argmax(sc)
}

// cleanOut propagates a clean input interval [aIn,bIn) whose rows moved up
// by shift through one conv, returning the reusable output interval and the
// output shift. When nothing is reusable it returns the empty interval, so
// the layer recomputes its whole plane and every layer downstream does too.
func cleanOut(q *QConv, g *convGeom, aIn, bIn, shift int) (aOut, bOut, sOut int) {
	st, kh, padH := int(q.Stride), int(q.KH), int(q.PadH)
	if bIn <= aIn || shift%st != 0 {
		return 0, 0, 0
	}
	if shift == 0 && aIn == 0 && bIn == g.h {
		return 0, g.oh, 0 // a repeated window: every output row is current
	}
	aOut = (aIn + padH + st - 1) / st
	bOut = min((bIn+padH-kh)/st+1, g.oh)
	if bOut <= aOut {
		return 0, 0, 0
	}
	return aOut, bOut, shift / st
}
