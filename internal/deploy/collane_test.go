package deploy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// oracleGather is the scalar reference for one ternary row over int8 planes
// at the given column stride: acc[j] = Σ₊ cols[p·stride+j] − Σ₋.
func oracleGather(cols []int8, plus, minus []int32, stride int) []int32 {
	acc := make([]int32, stride)
	for _, p := range plus {
		for j := 0; j < stride; j++ {
			acc[j] += int32(cols[int(p)*stride+j])
		}
	}
	for _, m := range minus {
		for j := 0; j < stride; j++ {
			acc[j] -= int32(cols[int(m)*stride+j])
		}
	}
	return acc
}

// ternaryRows draws a rows×taps ternary matrix at the given nonzero density
// (density 0 gives all-zero rows, 1 full ±1 rows).
func ternaryRows(rng *rand.Rand, rows, taps int, density float64) []int8 {
	w := make([]int8, rows*taps)
	for i := range w {
		if rng.Float64() < density {
			if rng.Intn(2) == 0 {
				w[i] = 1
			} else {
				w[i] = -1
			}
		}
	}
	return w
}

// TestGatherRowProperty drives the index-run row kernel over randomized
// shapes and densities and checks it against the scalar oracle on every
// column including the pads. The sweep deliberately crosses the edge cases:
// all-zero rows, full-density rows, tap counts past the 256-plane chunk
// budget, and ragged column counts that force a padded stride.
func TestGatherRowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	tapCases := []int{1, 3, 7, 31, 32, 33, 40, 64, 255, 256, 300}
	colCases := []int{1, 5, 7, 8, 9, 25, 96, 125}
	densities := []float64{0, 0.05, 0.35, 0.8, 1}
	for trial := 0; trial < 60; trial++ {
		taps := tapCases[rng.Intn(len(tapCases))]
		nOut := colCases[rng.Intn(len(colCases))]
		density := densities[rng.Intn(len(densities))]
		rows := 1 + rng.Intn(3)
		stride := pad8(nOut)

		w := ternaryRows(rng, rows, taps, density)
		sp := compileRows(w, rows, taps)

		cols := make([]int8, taps*stride)
		for i := range cols {
			cols[i] = int8(rng.Intn(256) - 128)
		}
		colsB := i8Bytes(cols)

		for r := 0; r < rows; r++ {
			plus, minus := sp.row(r)
			want := oracleGather(cols, plus, minus, stride)
			got := make([]int32, stride)
			for j := range got {
				got[j] = 123456 // stale garbage the gather must overwrite
			}
			gatherPlanesI8W(got, colsB, plus, minus, stride)
			for j := 0; j < stride; j++ {
				if got[j] != want[j] {
					t.Fatalf("trial %d row %d (taps=%d cols=%d d=%.2f): acc[%d]=%d, want %d",
						trial, r, taps, nOut, density, j, got[j], want[j])
				}
			}
		}
	}
}

// TestConvRowsMatchOracle pins the three standard-conv row functions —
// hidRowQ8, hidRowQ16 and outRowQ8, each the row walk followed by its
// requant row — against oracleGather followed by a per-element Mult.Apply,
// bias, ReLU and clamp. The sweep crosses random multipliers, biases and
// ReLU cuts, column counts off both walks' tile widths, dense strides that
// are not a multiple of 8 (the Go walk's scalar tail), rows past the
// 256-plane SWAR chunk and the saturated multiplier.
func TestConvRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	tapCases := []int{1, 12, 40, 300} // 300 > chunkPlanes8: two SWAR chunks
	colCases := []int{5, 8, 29, 32, 72, 96, 125, 128}
	for trial := 0; trial < 80; trial++ {
		taps := tapCases[rng.Intn(len(tapCases))]
		nOut := colCases[rng.Intn(len(colCases))]
		stride := pad8(nOut)
		if trial%3 == 0 {
			stride = nOut // a dense caller's stride
		}
		w := ternaryRows(rng, 1, taps, 0.1+0.8*rng.Float64())
		cols := make([]int8, taps*stride)
		for i := range cols {
			cols[i] = int8(rng.Intn(256) - 128)
		}
		colsB := i8Bytes(cols)

		m := NewMult(0.001 + rng.Float64()*0.9)
		if trial%17 == 0 {
			m = Mult{Mant: 1 << 30, Shift: 0} // saturated: the requant rows' guard
		}
		b := int32(rng.Intn(81) - 40)
		relu := rng.Intn(2) == 0
		q := &QConv{
			wbSp: compileRows(w, 1, taps), wcSp: compileRows(w, 1, taps),
			HidMul: []Mult{m}, hidMul8: []Mult{m}, outMul8: []Mult{m},
			OutBias: []int32{b}, ReLU: relu,
		}
		plus, minus := q.wbSp.row(0)
		sum := oracleGather(cols, plus, minus, stride)

		acc := make([]int32, stride)
		hid8 := make([]int8, nOut)
		q.hidRowQ8(0, hid8, acc, colsB, stride)
		hid16 := make([]int16, nOut)
		q.hidRowQ16(0, hid16, acc, colsB, stride)
		out8 := make([]int8, nOut)
		q.outRowQ8(0, out8, acc, colsB, stride)
		for j := 0; j < nOut; j++ {
			v := m.Apply(sum[j])
			o := v + b
			if relu && o < 0 {
				o = 0
			}
			if hid8[j] != clampI8(v) || hid16[j] != clampI16(v) || out8[j] != clampI8(o) {
				t.Fatalf("trial %d (taps=%d cols=%d stride=%d m=%+v b=%d relu=%v) col %d: hid8 %d hid16 %d out8 %d, want %d %d %d",
					trial, taps, nOut, stride, m, b, relu, j, hid8[j], hid16[j], out8[j], clampI8(v), clampI16(v), clampI8(o))
			}
		}
	}
}

// TestDWTapWord pins the edge-shifted depthwise load: for any offset —
// before the plane, inside it, straddling either end, or fully outside —
// byte lane l must read img[off+l] when that index is in bounds and zero
// otherwise.
func TestDWTapWord(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(57)
		img := make([]byte, n)
		rng.Read(img)
		off := rng.Intn(n+32) - 16
		got := dwTapWord(img, off)
		var want uint64
		for l := 0; l < 8; l++ {
			if s := off + l; s >= 0 && s < n {
				want |= uint64(img[s]) << (8 * l)
			}
		}
		if got != want {
			t.Fatalf("trial %d: dwTapWord(len=%d, off=%d) = %#x, want %#x", trial, n, off, got, want)
		}
	}
}

// dwChain is the scalar oracle of the depthwise R = 1 chain at one output
// position: tap sum hv, hidden requant hm clamped at int8 (act8) or int16,
// fold sign s (0 for a pruned unit), output requant om, bias b, ReLU floor
// and the int8 clamp.
func dwChain(hv int32, hm Mult, s int32, om Mult, b int32, relu, act8 bool) int8 {
	hid := hm.Apply(hv)
	if act8 {
		hid = int32(clampI8(hid))
	} else {
		hid = int32(clampI16(hid))
	}
	o := om.Apply(s*hid) + b
	if relu && o < 0 {
		o = 0
	}
	return clampI8(o)
}

// TestDWColMatchesScalar pins the depthwise column-lane kernels against
// dwColScalarPos followed by the scalar Apply chain (dwChain): dwColUnit's
// tap sums on the groups it claims (pad lanes must come out zero), the fused
// R = 1 chains dwColQ8 and dwColQ16 at both fold signs over the whole plane
// or a random run of its 8-column groups, and dwSparse's fused
// dispatch over whole layers whose pruned units (wcSign 0) requantise a zero
// accumulator. Plane sizes are random with h·w ≥ 8; odd kernels with same
// column padding and random row padding make head groups (a tap before the
// plane) and tail groups (a load past the last plane), which dwColUnit leaves
// to the scalar path; the planes' pad bytes hold garbage.
func TestDWColMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var heads, tails, pruned int
	for trial := 0; trial < 120; trial++ {
		kh, kw := 1+2*rng.Intn(3), 1+2*rng.Intn(3)
		padH, padW := rng.Intn(kh/2+1), kw/2
		h, w := 0, 1+rng.Intn(12)
		for h*w < 8 || h+2*padH < kh {
			h = 1 + rng.Intn(12)
		}
		cin := 1 + rng.Intn(4)
		q := &QConv{
			Kind: kindDepthwise, Cin: int32(cin), Cout: int32(cin),
			KH: int32(kh), KW: int32(kw), Stride: 1, PadH: int32(padH), PadW: int32(padW), R: 1,
			WbPacked: randTernaryPacked(rng, cin*kh*kw, 0.2+0.8*rng.Float64()),
			WcPacked: randTernaryPacked(rng, cin, 0.6),
			OutBias:  make([]int32, cin),
			ReLU:     rng.Intn(2) == 0,
		}
		for ch := 0; ch < cin; ch++ {
			q.HidMul = append(q.HidMul, NewMult(0.02+3*rng.Float64()))
			q.OutMul = append(q.OutMul, NewMult(0.0005+0.05*rng.Float64()))
			q.OutBias[ch] = int32(rng.Intn(81) - 40)
		}
		q.compileKernels()
		q.compileDWCol(h, w)
		if !q.dwCol {
			t.Fatalf("trial %d: stride-1 same-width geometry %dx%d k=%dx%d rejected", trial, h, w, kh, kw)
		}
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		inStride, outStride := pad8(h*w), pad8(nOut)
		x := make([]int8, cin*inStride)
		for i := range x {
			x[i] = int8(rng.Intn(256) - 128)
		}
		pos := func(ch, j int) int32 {
			plus, minus := q.wbSp.row(ch)
			return dwColScalarPos(x[ch*inStride:], plus, minus, h, w, ow, kw, padH, padW, j)
		}
		tag := fmt.Sprintf("trial %d (%dx%d k=%dx%d pad=%d,%d)", trial, h, w, kh, kw, padH, padW)
		for ch := 0; ch < cin; ch++ {
			plus, minus := q.wbSp.row(ch)
			img := i8Bytes(x[ch*inStride:])
			hacc := make([]int32, outStride)
			for j := range hacc {
				hacc[j] = staleAcc
			}
			gLo, gHi := q.dwColUnit(hacc, img, plus, minus)
			if gLo > 0 {
				heads++
			}
			if gHi < q.dwColNG {
				tails++
			}
			for j := gLo << 3; j < gHi<<3; j++ {
				want := int32(0) // a pad lane
				if j < nOut {
					want = pos(ch, j)
				}
				if hacc[j] != want {
					t.Fatalf("%s ch %d: dwColUnit hacc[%d]=%d, want %d", tag, ch, j, hacc[j], want)
				}
			}
			for _, act8 := range []bool{false, true} {
				hm, om := q.HidMul[ch], q.OutMul[ch]
				if act8 {
					hm, om = q.hidMul8[ch], q.outMul8[ch]
				}
				for _, s := range []int32{-1, 1} {
					dst := make([]int8, nOut+8)
					for j := range dst {
						dst[j] = canaryI8
					}
					// The whole plane, or a random run of its groups (a
					// hop band): only the run's columns may be written.
					gLo, gHi := 0, q.dwColNG
					if rng.Intn(2) == 0 {
						gLo = rng.Intn(q.dwColNG + 1)
						gHi = gLo + rng.Intn(q.dwColNG-gLo+1)
					}
					if act8 {
						q.dwColQ8(dst[:nOut], img, plus, minus, hm, s, om, q.OutBias[ch], q.ReLU, gLo, gHi)
					} else {
						q.dwColQ16(dst[:nOut], img, plus, minus, hm, s, om, q.OutBias[ch], q.ReLU, gLo, gHi)
					}
					for j := range dst {
						want := canaryI8
						if j < nOut && j >= gLo<<3 && j < gHi<<3 {
							want = dwChain(pos(ch, j), hm, s, om, q.OutBias[ch], q.ReLU, act8)
						}
						if dst[j] != want {
							t.Fatalf("%s ch %d act8=%v s=%d: fused dst[%d]=%d, want %d", tag, ch, act8, s, j, dst[j], want)
						}
					}
				}
			}
		}
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			act8 := pol == PolicyInt8
			out := make([]int8, cin*outStride)
			q.dwSparse(arenaForConv(q, h, w), x, out, h, w, oh, ow, pol, inStride, outStride, [][2]int{{0, oh}})
			for ch := 0; ch < cin; ch++ {
				hm, om := q.HidMul[ch], q.OutMul[ch]
				if act8 {
					hm, om = q.hidMul8[ch], q.outMul8[ch]
				}
				s := int32(q.wcSign[ch])
				if s == 0 && !act8 {
					pruned++
				}
				for j := 0; j < nOut; j++ {
					want := dwChain(pos(ch, j), hm, s, om, q.OutBias[ch], q.ReLU, act8)
					if got := out[ch*outStride+j]; got != want {
						t.Fatalf("%s pol %v ch %d (wc %d): dwSparse out[%d]=%d, want %d", tag, pol, ch, s, j, got, want)
					}
				}
			}
		}
	}
	if heads == 0 || tails == 0 || pruned == 0 {
		t.Fatalf("sweep missed a case: %d head-group channels, %d tail-group channels, %d pruned units", heads, tails, pruned)
	}
}

// TestBatchLanePathWithTelemetry pins that an observer changes nothing on
// the batch path serve lanes take: with an observer attached, InferBatch over
// one full chunk plus a short one must stay bit-identical to the unobserved
// engine, and engine.infers must count every frame.
func TestBatchLanePathWithTelemetry(t *testing.T) {
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e := deployTestEngine(53)
		e.Policy = pol
		plain := deployTestEngine(53)
		plain.Policy = pol
		reg := telemetry.NewRegistry()
		obs := e.EnableTelemetry(reg, nil)

		rng := rand.New(rand.NewSource(7))
		const n = chunkFrames + 3 // one full chunk plus a short one
		xs := make([][]float32, n)
		for i := range xs {
			x := make([]float32, e.Frames*e.Coeffs)
			for j := range x {
				x[j] = float32(rng.NormFloat64())
			}
			xs[i] = x
		}

		got := e.InferBatch(xs)
		want := plain.InferBatch(xs)
		for i := range got {
			if got[i].Err != nil || want[i].Err != nil {
				t.Fatalf("pol %v frame %d: err %v / %v", pol, i, got[i].Err, want[i].Err)
			}
			if got[i].Class != want[i].Class {
				t.Fatalf("pol %v frame %d: class %d, want %d", pol, i, got[i].Class, want[i].Class)
			}
			for j := range got[i].Scores {
				if got[i].Scores[j] != want[i].Scores[j] {
					t.Fatalf("pol %v frame %d: scores diverge at %d", pol, i, j)
				}
			}
		}

		if got := obs.Infers.Value(); got != n {
			t.Fatalf("pol %v: engine.infers = %d, want %d", pol, got, n)
		}
	}
}

// TestMixedSingleBatchConcurrent shares one engine between a single-frame
// caller (Infer's documented single-goroutine contract) and concurrent
// InferBatch callers, validating under -race that the resident arena and
// the pooled batch arenas never alias. Every caller checks its classes
// against a reference engine.
func TestMixedSingleBatchConcurrent(t *testing.T) {
	e := deployTestEngine(67)
	e.Policy = PolicyInt8
	ref := deployTestEngine(67)
	ref.Policy = PolicyInt8

	rng := rand.New(rand.NewSource(11))
	const nIn = 12
	ins := make([][]float32, nIn)
	wantClass := make([]int, nIn)
	for i := range ins {
		x := make([]float32, e.Frames*e.Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		ins[i] = x
		_, wantClass[i] = ref.Infer(x)
	}

	iters := 30
	if raceEnabled {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	// One single-frame caller on the resident arena...
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			for i, x := range ins {
				if _, cls := e.Infer(x); cls != wantClass[i] {
					select {
					case errs <- errMismatch(i, cls, wantClass[i]):
					default:
					}
					return
				}
			}
		}
	}()
	// ...and three concurrent batch callers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, r := range e.InferBatch(ins) {
					if r.Err != nil || r.Class != wantClass[i] {
						select {
						case errs <- errMismatch(i, r.Class, wantClass[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func errMismatch(i, got, want int) error {
	return fmt.Errorf("frame %d: class %d, want %d", i, got, want)
}
