package deploy

import "fmt"

// BatchResult is one frame's outcome from InferBatch.
type BatchResult struct {
	Scores []int32 // caller-owned copy of the class scores
	Class  int     // argmax class; -1 when Err is set
	Err    error   // wrong-length input or a recovered inference panic
}

// InferBatch classifies many MFCC frames on the calling goroutine. Every
// frame runs Infer's single-frame pipeline, so batch results equal Infer's.
// Per-frame faults (wrong input length, a recovered panic) land in that
// frame's Err instead of failing the batch. Unlike Infer, the returned score
// slices are caller-owned copies.
//
// InferBatch is safe for concurrent use, including concurrently with other
// InferBatch calls on the same engine: each call checks its own arena out
// of the engine's pool, so concurrent callers are the batch path's only
// parallelism.
func (e *Engine) InferBatch(xs [][]float32) []BatchResult {
	return e.InferBatchInto(nil, xs)
}

// InferBatchCapped is InferBatch; maxWorkers is ignored.
//
// Deprecated: every batch runs on the calling goroutine. Use InferBatch.
func (e *Engine) InferBatchCapped(xs [][]float32, maxWorkers int) []BatchResult {
	return e.InferBatch(xs)
}

// InferBatchInto is InferBatch writing into caller-owned results: dst (and
// each slot's Scores storage) is reused when its capacity suffices, so a
// caller that keeps its result slice across batches runs the whole batch
// path at zero steady-state heap allocations. The whole call runs on one
// arena checked out of the engine's pool.
func (e *Engine) InferBatchInto(dst []BatchResult, xs [][]float32) []BatchResult {
	if cap(dst) >= len(xs) {
		dst = dst[:len(xs)]
	} else {
		grown := make([]BatchResult, len(xs))
		copy(grown, dst[:cap(dst)]) // carry reusable Scores storage forward
		dst = grown
	}
	// Compile (and check the policy) before any frame's recover, so a
	// Policy written after compile panics out of the call.
	e.ensureCompiled()
	if len(xs) == 0 {
		return dst
	}
	a, ok := e.arenas.Get().(*arena)
	if !ok {
		a = newArena(e, false)
	}
	for i, x := range xs {
		dst[i] = e.inferOne(a, x, dst[i].Scores)
	}
	e.arenas.Put(a)
	return dst
}

// inferOne classifies one frame on the given arena with InferSafe semantics:
// length-checked input, panics converted to errors. scratch is the previous
// result's Scores storage (nil is fine); it is overwritten and reused so
// steady-state callers allocate nothing.
func (e *Engine) inferOne(a *arena, x []float32, scratch []int32) (r BatchResult) {
	defer func() {
		if p := recover(); p != nil {
			e.obs.fault()
			r = BatchResult{Class: -1, Err: fmt.Errorf("deploy: inference panic: %v", p)}
		}
	}()
	if want := int(e.Frames) * int(e.Coeffs); len(x) != want {
		e.obs.fault()
		return BatchResult{Class: -1, Err: fmt.Errorf("%w: input length %d, want %d", ErrShapeMismatch, len(x), want)}
	}
	sc, cls := e.inferFrame(a, x)
	return BatchResult{Scores: append(scratch[:0], sc...), Class: cls}
}
