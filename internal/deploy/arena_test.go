package deploy

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// poisonSlice overwrites every byte of s's backing array, up to its
// capacity, with b.
func poisonSlice[T any](s []T, b byte) {
	s = s[:cap(s)]
	if len(s) == 0 {
		return
	}
	bs := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	for i := range bs {
		bs[i] = b
	}
}

// poisonArena fills every buffer of a with byte b: the image planes with
// their pad columns, im2col, the scatter row, both hidden planes, the
// accumulators and the pool and tree scratch. A pass may read none of it
// before writing it.
func poisonArena(a *arena, b byte) {
	for _, p := range a.planes {
		poisonSlice(p, b)
	}
	poisonSlice(a.cols, b)
	poisonSlice(a.row, b)
	poisonSlice(a.hidden, b)
	poisonSlice(a.hidden8, b)
	poisonSlice(a.acc, b)
	poisonSlice(a.pooled, b)
	poisonSlice(a.z16, b)
	poisonSlice(a.z8, b)
	poisonSlice(a.wv, b)
	poisonSlice(a.scores, b)
	poisonSlice(a.out, b)
	poisonSlice(a.denseHid, b)
}

// poisonBytes are the garbage patterns: a canary, the int8 maximum and the
// int8 minimum (the SWAR bias byte).
var poisonBytes = []byte{0x5A, 0x7F, 0x80}

// TestPoisonedArenaMatchesOracle runs frames on a frame arena whose every
// buffer holds garbage, and hops on a released hop state poisoned the same
// way, on random live-multiplier engines under both policies (liveInt8 for
// PolicyInt8): each frame must match NaiveInt, a poisoned state's cold hop
// full-window Infer, and its warm hops full-window Infer of each window.
// Only state a pass writes before it reads may differ between arenas; a
// kernel that reads a stale accumulator, pad column or cached image shows.
func TestPoisonedArenaMatchesOracle(t *testing.T) {
	const engines = 12
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		varying := 0
		for seed := int64(0); seed < engines; seed++ {
			rng := rand.New(rand.NewSource(4400 + seed))
			e := randSmallEngine(rng)
			if pol == PolicyInt8 {
				liveInt8(e)
			}
			e.Policy = pol
			e.Calib = e.calibTable()
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d pol %v: random engine invalid: %v", seed, pol, err)
			}
			e.ensureCompiled()
			frames, coeffs := int(e.Frames), int(e.Coeffs)
			randWindow := func() []float32 {
				x := make([]float32, frames*coeffs)
				for i := range x {
					x[i] = float32(2 * rng.NormFloat64())
				}
				return x
			}
			a := newArena(e, false)
			var spread scoreSpread
			for _, b := range poisonBytes {
				poisonArena(a, b)
				x := randWindow()
				got, gotCls := e.inferFrame(a, x)
				want, wantCls := e.NaiveInt(x)
				spread.add(want)
				if gotCls != wantCls || !slices.Equal(got, want) {
					t.Fatalf("seed %d pol %v poison %#x: frame scores %v class %d, oracle %v class %d",
						seed, pol, b, got, gotCls, want, wantCls)
				}
			}
			if spread.varies {
				varying++
			}

			hs := e.NewHopState()
			for _, b := range poisonBytes {
				hs.Release()
				poisonArena(hs.a, b)
				next := e.NewHopState()
				if next != hs {
					poisonArena(next.a, b) // the pool dropped hs: poison its replacement
				}
				hs = next
				win := randWindow()
				for hop := 0; hop < 6; hop++ {
					nNew := frames
					if hop > 0 {
						nNew = 1 + rng.Intn(frames/2)
						copy(win, win[nNew*coeffs:])
						for i := (frames - nNew) * coeffs; i < len(win); i++ {
							win[i] = float32(2 * rng.NormFloat64())
						}
					}
					got, gotCls := e.InferHop(hs, win, nNew)
					got = append([]int32(nil), got...)
					want, wantCls := e.Infer(win)
					if gotCls != wantCls || !slices.Equal(got, want) {
						t.Fatalf("seed %d pol %v poison %#x hop %d (nNew %d): hop scores %v class %d, full window %v class %d",
							seed, pol, b, hop, nNew, got, gotCls, want, wantCls)
					}
				}
			}
			hs.Release()
		}
		checkVarying(t, pol, varying, engines)
	}
}
