package deploy

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestGatherLaneMatchesScalar pins the frame-major index-run gather against
// the scalar per-frame oracle: packing 8 random frames into lane layout and
// running gatherPlanesI8W at the lane stride must reproduce gatherI8 on each
// frame's planes, for plane counts straddling the fold boundary and rows
// from empty to fully dense.
func TestGatherLaneMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		planes, nOut int
		density      float64
	}{
		{5, 8, 0.5},
		{40, 24, 0.3},
		{300, 16, 0.6},
		{600, 8, 0.9},
		{12, 1, 0.5},
		{257, 40, 1.0},
		{64, 9, 0.0}, // empty row: must zero the accumulator
	}
	for _, tc := range cases {
		w := make([]int8, tc.planes)
		for i := range w {
			if rng.Float64() < tc.density {
				w[i] = int8(1 - 2*rng.Intn(2))
			}
		}
		sp := compileRows(w, 1, tc.planes)
		plus, minus := sp.row(0)

		laneW := tc.nOut * laneFrames
		frames := make([][]int8, laneFrames)
		lane := make([]int8, tc.planes*laneW)
		for f := range frames {
			frames[f] = make([]int8, tc.planes*tc.nOut)
			for i := range frames[f] {
				frames[f][i] = int8(rng.Intn(256) - 128)
			}
			tensor.PackLanes8(lane, frames[f], f)
		}
		acc := make([]int32, laneW)
		for i := range acc {
			acc[i] = 123456 // stale garbage the gather must overwrite
		}
		gatherPlanesI8W(acc, i8Bytes(lane), plus, minus, laneW)
		ref := make([]int32, tc.nOut)
		for f := 0; f < laneFrames; f++ {
			gatherI8(ref, frames[f], plus, minus, tc.nOut)
			for j := 0; j < tc.nOut; j++ {
				if acc[j*laneFrames+f] != ref[j] {
					t.Fatalf("planes=%d nOut=%d: frame %d pos %d: lane %d, scalar %d",
						tc.planes, tc.nOut, f, j, acc[j*laneFrames+f], ref[j])
				}
			}
		}
	}
}

// TestInferBatchLaneMatchesPerFrame is the batch-path exactness property:
// for randomized engine shapes and densities, every batch size (ragged
// tails included) and both activation policies, InferBatch must be
// bit-identical per frame to Infer and to the int64 scalar oracle.
func TestInferBatchLaneMatchesPerFrame(t *testing.T) {
	sizes := []int{1, 3, 5, 7, 8, 9, 16, 23}
	if testing.Short() {
		sizes = []int{3, 7, 8, 23}
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(4200 + seed))
		e := randSmallEngine(rng)
		want := int(e.Frames * e.Coeffs)
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e.Policy = pol
			var dst []BatchResult
			for _, n := range sizes {
				xs := make([][]float32, n)
				for i := range xs {
					x := make([]float32, want)
					for j := range x {
						x[j] = float32(rng.NormFloat64())
					}
					xs[i] = x
				}
				dst = e.InferBatchInto(dst, xs)
				for i, r := range dst {
					if r.Err != nil {
						t.Fatalf("seed %d pol %v n=%d frame %d: %v", seed, pol, n, i, r.Err)
					}
					sc, cls := e.Infer(xs[i])
					if r.Class != cls {
						t.Fatalf("seed %d pol %v n=%d frame %d: class %d, Infer %d", seed, pol, n, i, r.Class, cls)
					}
					for j := range sc {
						if r.Scores[j] != sc[j] {
							t.Fatalf("seed %d pol %v n=%d frame %d: score[%d]=%d, Infer %d",
								seed, pol, n, i, j, r.Scores[j], sc[j])
						}
					}
					nsc, ncls := e.NaiveInt(xs[i])
					if r.Class != ncls {
						t.Fatalf("seed %d pol %v n=%d frame %d: class %d, NaiveInt %d", seed, pol, n, i, r.Class, ncls)
					}
					for j := range nsc {
						if r.Scores[j] != nsc[j] {
							t.Fatalf("seed %d pol %v n=%d frame %d: score[%d]=%d, NaiveInt %d",
								seed, pol, n, i, j, r.Scores[j], nsc[j])
						}
					}
				}
			}
		}
	}
}

// TestInferBatchZeroAllocs is the batch counterpart of the single-frame
// 0-alloc gate: with a reused result slice, the serial lane path must run
// without heap allocation under both policies.
func TestInferBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts are meaningless")
	}
	e := SyntheticEngine(3, 0.35)
	const batch = 16
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float32, batch)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e.Policy = pol
		var dst []BatchResult
		dst = e.InferBatchCappedInto(dst, xs, 1) // warm: arena pool + Scores storage
		allocs := testing.AllocsPerRun(10, func() {
			dst = e.InferBatchCappedInto(dst, xs, 1)
		})
		if allocs != 0 {
			t.Fatalf("policy %v: InferBatchCappedInto allocated %.1f times per run, want 0", pol, allocs)
		}
		for i, r := range dst {
			if r.Err != nil {
				t.Fatalf("policy %v frame %d: %v", pol, i, r.Err)
			}
		}
	}
}

// TestInferBatchLaneConcurrent drives the lane kernels from several
// goroutines on one shared engine under -race: concurrent InferBatchInto
// calls (full and ragged lanes) must stay bit-identical to the per-frame
// path.
func TestInferBatchLaneConcurrent(t *testing.T) {
	e := SyntheticEngine(5, 0.35)
	const n = 23
	rng := rand.New(rand.NewSource(55))
	xs := make([][]float32, n)
	exp := make([][]int32, n)
	expCls := make([]int, n)
	for i := range xs {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
		sc, cls := e.Infer(x)
		exp[i] = append([]int32(nil), sc...)
		expCls[i] = cls
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []BatchResult
			for it := 0; it < 3; it++ {
				dst = e.InferBatchInto(dst, xs)
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
