package deploy

import (
	"fmt"
	"runtime"
)

// BatchResult is one frame's outcome from InferBatch.
type BatchResult struct {
	Scores []int32 // caller-owned copy of the class scores
	Class  int     // argmax class; -1 when Err is set
	Err    error   // wrong-length input or a recovered inference panic
}

// maxBatchWorkers caps the engine's persistent batch worker pool. The pool
// is fixed-size (started once, lazily) so GOMAXPROCS changes between calls
// never strand it undersized; the per-call worker cap bounds how many chunks
// are actually in flight.
const maxBatchWorkers = 16

// chunkFrames is the batch dispatch unit: a worker takes this many frames at
// a time and runs them one after another on one pooled arena, so hand-off
// and arena checkout are paid once per chunk rather than once per frame.
const chunkFrames = 8

// chunkJob is one chunk of a batch, passed by value to the persistent worker
// pool; done is the caller's completion channel.
type chunkJob struct {
	e    *Engine
	xs   [][]float32
	dst  []BatchResult
	done chan struct{}
}

func batchWorker(work chan chunkJob) {
	for j := range work {
		j.e.runChunk(j.xs, j.dst)
		j.done <- struct{}{}
	}
}

// ensureBatchWorkers starts the persistent batch workers on first parallel
// batch. Workers hold only the channel (never the engine), so once the
// engine is garbage its finalizer closes work and the pool unwinds.
func (e *Engine) ensureBatchWorkers() {
	e.batchOnce.Do(func() {
		e.batchWork = make(chan chunkJob, maxBatchWorkers)
		e.batchDone.New = func() any { return make(chan struct{}, maxBatchWorkers) }
		for i := 0; i < maxBatchWorkers; i++ {
			go batchWorker(e.batchWork)
		}
		runtime.SetFinalizer(e, func(e *Engine) { close(e.batchWork) })
	})
}

// InferBatch classifies many MFCC frames, amortising dispatch for streaming
// and serving callers. Every frame runs Infer's single-frame pipeline, so
// batch results equal Infer's; chunks of eight frames are spread over up to
// GOMAXPROCS workers from a persistent pool.
// Per-frame faults (wrong input length, a recovered panic) land in that
// frame's Err instead of failing the batch. Unlike Infer, the returned score
// slices are caller-owned copies.
//
// InferBatch is safe for concurrent use, including concurrently with other
// InferBatch calls on the same engine.
func (e *Engine) InferBatch(xs [][]float32) []BatchResult {
	return e.InferBatchCappedInto(nil, xs, 0)
}

// InferBatchInto is InferBatch writing into caller-owned results: dst (and
// each slot's Scores storage) is reused when its capacity suffices, so a
// caller that keeps its result slice across batches runs the whole batch
// path at zero steady-state heap allocations.
func (e *Engine) InferBatchInto(dst []BatchResult, xs [][]float32) []BatchResult {
	return e.InferBatchCappedInto(dst, xs, 0)
}

// InferBatchCapped is InferBatch with an explicit ceiling on the workers
// used for this one call (maxWorkers <= 0 selects GOMAXPROCS). Serving
// callers that already run many batches concurrently — one per inference
// lane — cap per-call fan-out so L lanes × B frames never oversubscribe the
// host; the results are identical at any cap.
func (e *Engine) InferBatchCapped(xs [][]float32, maxWorkers int) []BatchResult {
	return e.InferBatchCappedInto(nil, xs, maxWorkers)
}

// InferBatchCappedInto combines InferBatchInto and InferBatchCapped: results
// go into the reused dst, and at most maxWorkers goroutines (including the
// caller) process chunks. When the effective worker count is one the whole
// batch runs on the calling goroutine with no dispatch at all; otherwise
// chunks are handed to the persistent worker pool, the caller keeps up to
// maxWorkers−1 chunks in flight and runs the overflow itself, so a full pool
// degrades to inline work instead of blocking.
func (e *Engine) InferBatchCappedInto(dst []BatchResult, xs [][]float32, maxWorkers int) []BatchResult {
	if cap(dst) >= len(xs) {
		dst = dst[:len(xs)]
	} else {
		grown := make([]BatchResult, len(xs))
		copy(grown, dst[:cap(dst)]) // carry reusable Scores storage forward
		dst = grown
	}
	if len(xs) == 0 {
		return dst
	}
	e.ensureCompiled()
	nChunks := (len(xs) + chunkFrames - 1) / chunkFrames
	workers := runtime.GOMAXPROCS(0)
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		for lo := 0; lo < len(xs); lo += chunkFrames {
			hi := lo + chunkFrames
			if hi > len(xs) {
				hi = len(xs)
			}
			e.runChunk(xs[lo:hi], dst[lo:hi])
		}
		return dst
	}
	e.ensureBatchWorkers()
	done := e.batchDone.Get().(chan struct{})
	inflight := 0
	for lo := 0; lo < len(xs); lo += chunkFrames {
		hi := lo + chunkFrames
		if hi > len(xs) {
			hi = len(xs)
		}
	reclaim:
		for inflight > 0 {
			select {
			case <-done:
				inflight--
			default:
				break reclaim
			}
		}
		if inflight < workers-1 {
			select {
			case e.batchWork <- chunkJob{e: e, xs: xs[lo:hi], dst: dst[lo:hi], done: done}:
				inflight++
				continue
			default:
				// Pool saturated by concurrent batches; run this chunk inline.
			}
		}
		e.runChunk(xs[lo:hi], dst[lo:hi])
	}
	for ; inflight > 0; inflight-- {
		<-done
	}
	e.batchDone.Put(done)
	return dst
}

// runChunk classifies one chunk's frames into dst on one pooled arena,
// reusing each slot's Scores storage.
func (e *Engine) runChunk(xs [][]float32, dst []BatchResult) {
	a := e.getArena()
	for i, x := range xs {
		dst[i] = e.inferOne(a, x, dst[i].Scores)
	}
	e.putArena(a)
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
	// Run at the arena's policy, not e.Policy: the kernels must match the
	// buffers the arena was sized with, even if Policy was flipped after
	// this chunk checked its arena out.
	sc, cls := e.inferFrame(a, x)
	return BatchResult{Scores: append(scratch[:0], sc...), Class: cls}
}

// getArena checks a scratch arena out of the pool, building one on first
// use. Pooled arenas sized for a different policy are dropped (the pool
// refills at the current one).
func (e *Engine) getArena() *arena {
	if a, ok := e.arenas.Get().(*arena); ok && a.pol == e.Policy {
		return a
	}
	a := newArena(e, false)
	e.obs.noteArena(a)
	return a
}

func (e *Engine) putArena(a *arena) { e.arenas.Put(a) }
