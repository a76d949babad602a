package deploy

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// randFrames draws n random MFCC frames sized for e.
func randFrames(rng *rand.Rand, e *Engine, n int) [][]float32 {
	xs := make([][]float32, n)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	return xs
}

// checkBatchExact fails t unless res holds one error-free result per frame
// of xs, each bit-identical to Infer and to the int64 scalar oracle.
func checkBatchExact(t *testing.T, tag string, e *Engine, xs [][]float32, res []BatchResult) {
	t.Helper()
	if len(res) != len(xs) {
		t.Fatalf("%s: got %d results, want %d", tag, len(res), len(xs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("%s frame %d: unexpected error %v", tag, i, r.Err)
		}
		sc, cls := e.Infer(xs[i])
		if r.Class != cls {
			t.Fatalf("%s frame %d: class %d, Infer %d", tag, i, r.Class, cls)
		}
		for j := range sc {
			if r.Scores[j] != sc[j] {
				t.Fatalf("%s frame %d: score[%d]=%d, Infer %d", tag, i, j, r.Scores[j], sc[j])
			}
		}
		nsc, ncls := e.NaiveInt(xs[i])
		if r.Class != ncls {
			t.Fatalf("%s frame %d: class %d, NaiveInt %d", tag, i, r.Class, ncls)
		}
		for j := range nsc {
			if r.Scores[j] != nsc[j] {
				t.Fatalf("%s frame %d: score[%d]=%d, NaiveInt %d", tag, i, j, r.Scores[j], nsc[j])
			}
		}
	}
}

// TestInferBatchMatchesInfer checks one InferBatch call over 16 frames on
// the paper-shape synthetic engine: every frame must be bit-identical to
// Infer and to the int64 scalar oracle.
func TestInferBatchMatchesInfer(t *testing.T) {
	e := SyntheticEngine(5, 0.3)
	xs := randFrames(rand.New(rand.NewSource(6)), e, 16)
	checkBatchExact(t, "synthetic", e, xs, e.InferBatch(xs))
}

// TestInferBatchLaneMatchesPerFrame is the batch-path exactness property
// for the path serve lanes drive: for randomized engine shapes and
// densities, every batch size and both activation policies, InferBatchInto
// with a reused result slice must be bit-identical per frame to Infer and
// to the int64 scalar oracle.
func TestInferBatchLaneMatchesPerFrame(t *testing.T) {
	sizes := []int{1, 3, 5, 7, 8, 9, 16, 23}
	if testing.Short() {
		sizes = []int{3, 7, 8, 23}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		e := randSmallEngine(rng)
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e.Policy = pol
			var dst []BatchResult
			for _, n := range sizes {
				xs := randFrames(rng, e, n)
				dst = e.InferBatchInto(dst, xs)
				checkBatchExact(t, fmt.Sprintf("seed %d pol %v n=%d", seed, pol, n), e, xs, dst)
			}
		}
	}
}

// TestInferBatchZeroAllocs is the batch counterpart of the single-frame
// 0-alloc gate: with a reused result slice, InferBatchInto (the entry point
// the ci.sh batch gate times) must run without heap allocation under both
// policies.
func TestInferBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are meaningless")
	}
	e := SyntheticEngine(3, 0.35)
	const batch = 16
	xs := randFrames(rand.New(rand.NewSource(77)), e, batch)
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e.Policy = pol
		var dst []BatchResult
		dst = e.InferBatchInto(dst, xs) // warm: arena pool + Scores storage
		allocs := testing.AllocsPerRun(10, func() {
			dst = e.InferBatchInto(dst, xs)
		})
		if allocs != 0 {
			t.Fatalf("policy %v: InferBatchInto allocated %.1f times per run, want 0", pol, allocs)
		}
		for i, r := range dst {
			if r.Err != nil {
				t.Fatalf("policy %v frame %d: %v", pol, i, r.Err)
			}
		}
	}
}

// hammerBatch runs batch from 4 goroutines, iters times each, on one shared
// engine; each goroutine passes its previous results back in, and every
// result must match exp/expCls exactly.
func hammerBatch(t *testing.T, iters int, exp [][]int32, expCls []int, batch func(dst []BatchResult) []BatchResult) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []BatchResult
			for it := 0; it < iters; it++ {
				dst = batch(dst)
				for i, r := range dst {
					if r.Err != nil {
						t.Errorf("frame %d: %v", i, r.Err)
						return
					}
					if r.Class != expCls[i] {
						t.Errorf("frame %d: class %d, want %d", i, r.Class, expCls[i])
						return
					}
					for j := range exp[i] {
						if r.Scores[j] != exp[i][j] {
							t.Errorf("frame %d: score[%d]=%d, want %d", i, j, r.Scores[j], exp[i][j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestInferBatchConcurrent hammers one shared engine's InferBatch from
// several goroutines (the ci.sh -race pass covers this) to pin down the
// arena pool's thread safety: concurrent callers, the batch path's only
// parallelism, must stay bit-identical to the scalar oracle.
func TestInferBatchConcurrent(t *testing.T) {
	e := SyntheticEngine(9, 0.3)
	const n = 23
	xs := randFrames(rand.New(rand.NewSource(10)), e, n)
	exp := make([][]int32, n)
	expCls := make([]int, n)
	for i, x := range xs {
		exp[i], expCls[i] = e.inferNaive(x, PolicyMixed)
	}
	hammerBatch(t, 5, exp, expCls, func([]BatchResult) []BatchResult {
		return e.InferBatch(xs)
	})
}

// TestInferBatchLaneConcurrent drives InferBatchInto the way serve lanes
// do, from several goroutines on one shared engine under -race: concurrent
// calls with caller-owned results reused across calls must stay
// bit-identical to the single-frame path.
func TestInferBatchLaneConcurrent(t *testing.T) {
	e := SyntheticEngine(5, 0.35)
	const n = 23
	xs := randFrames(rand.New(rand.NewSource(55)), e, n)
	exp := make([][]int32, n)
	expCls := make([]int, n)
	for i, x := range xs {
		sc, cls := e.Infer(x)
		exp[i] = append([]int32(nil), sc...)
		expCls[i] = cls
	}
	hammerBatch(t, 3, exp, expCls, func(dst []BatchResult) []BatchResult {
		return e.InferBatchInto(dst, xs)
	})
}

// TestInferBatchStartsNoGoroutine pins that a batch runs on its caller's
// goroutine: a 64-frame InferBatch on a fresh engine, with two Ps free to
// fan out onto, must not raise the goroutine count.
func TestInferBatchStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	e := SyntheticEngine(9, 0.35)
	xs := randFrames(rand.New(rand.NewSource(64)), e, 64)
	before := runtime.NumGoroutine()
	for i, r := range e.InferBatch(xs) {
		if r.Err != nil {
			t.Fatalf("frame %d: %v", i, r.Err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("InferBatch left %d goroutines, want at most %d", after, before)
	}
}
