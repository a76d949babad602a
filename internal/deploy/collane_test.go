package deploy

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// oracleGather is the scalar reference for one ternary row over int8 planes
// at the given column stride, read off the dense row w (one −1/0/+1 entry
// per plane), never through the kernels' mask decode:
// acc[j] = Σ_p w[p]·cols[p·stride+j].
func oracleGather(cols []int8, w []int8, stride int) []int32 {
	acc := make([]int32, stride)
	for p, v := range w {
		for j := 0; j < stride && v != 0; j++ {
			acc[j] += int32(v) * int32(cols[p*stride+j])
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

// TestGatherRowProperty drives the plane-mask row kernel over randomized
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
			want := oracleGather(cols, w[r*taps:(r+1)*taps], stride)
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
			hidReq: []Mult{m}, outReq: []Mult{m},
			OutBias: []int32{b}, ReLU: relu,
		}
		sum := oracleGather(cols, w, stride)

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

// dwTapSums is the scalar oracle of one depthwise unit's tap sums over the
// whole output plane: the taps its dense Wb row w selects, gathered by
// dwGatherTap straight off the channel plane img.
func dwTapSums(q *QConv, img []int8, h, w int, row []int8) []int32 {
	oh, ow := q.outSize(h, w)
	kw := int(q.KW)
	sums := make([]int32, oh*ow)
	for p, v := range row {
		if v != 0 {
			dwGatherTap(sums, img[:h*w], p/kw, p%kw, h, w, oh, ow, int(q.Stride), int(q.PadH), int(q.PadW), int32(v))
		}
	}
	return sums
}

// TestDWColMatchesScalar pins the fused R = 1 depthwise kernel against
// dwGatherTap's tap sums followed by the scalar Apply chain (dwChain):
// dwColFused under the multipliers and hidden width the layer compiles at
// under each policy, at both
// fold signs, over the whole plane or a random run of its 8-column groups,
// and dwSparse over whole layers and random hop bands, where pruned units
// (wcSign 0) requantise a zero accumulator and a channel with a saturated
// multiplier must fall back to the scalar walk. Plane sizes are random with
// h·w ≥ 8; odd kernels with same column padding and random row padding
// make head groups (a tap before the plane) and tail groups (a load past
// the last plane); the planes' pad bytes hold garbage.
func TestDWColMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	policies := []Policy{PolicyMixed, PolicyInt8}
	var heads, tails, pruned, saturated, satDiverged int
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
		q.compileKernels(PolicyMixed)
		q.compileDWCol(h, w)
		if !q.dwCol {
			t.Fatalf("trial %d: stride-1 same-width geometry %dx%d k=%dx%d rejected", trial, h, w, kh, kw)
		}
		// Every fourth layer saturates one channel's hidden or output
		// multiplier under both policies (|m| ≥ 2³¹, outside the fused
		// kernel's identity): compileAt compiles q at a policy and writes
		// the saturated multiplier into the compiled set.
		sat, satHid := -1, false
		if trial%4 == 0 {
			sat, satHid = rng.Intn(cin), rng.Intn(2) == 0
		}
		compileAt := func(pol Policy) {
			q.compileKernels(pol)
			m := Mult{Mant: 1 << 30, Shift: 0}
			switch {
			case sat >= 0 && satHid:
				q.hidReq[sat] = m
			case sat >= 0:
				q.outReq[sat] = m
			}
		}
		oh, ow := q.outSize(h, w)
		nOut := oh * ow
		inStride, outStride := pad8(h*w), pad8(nOut)
		// A head tap reads before the plane; on the last channel a tail
		// group's load runs past the buffer. Both take the edge loads.
		if slices.Min(q.dwColOffs) < 0 {
			heads++
		}
		if (q.dwColNG-1)*8+int(slices.Max(q.dwColOffs))+8 > inStride {
			tails++
		}
		x := make([]int8, cin*inStride)
		for i := range x {
			x[i] = int8(rng.Intn(256) - 128)
		}
		wb, _ := q.ternaries()
		sums := make([][]int32, cin)
		for ch := range sums {
			sums[ch] = dwTapSums(q, x[ch*inStride:], h, w, wb[ch*kh*kw:(ch+1)*kh*kw])
		}
		mults := func(ch int) (hm, om Mult, hlo, hhi int32) {
			hlo, hhi = hidBounds(q.pol)
			return q.hidReq[ch], q.outReq[ch], hlo, hhi
		}
		var lo int32 = -128
		if q.ReLU {
			lo = 0
		}
		tag := fmt.Sprintf("trial %d (%dx%d k=%dx%d pad=%d,%d)", trial, h, w, kh, kw, padH, padW)
		for ch := 0; ch < cin; ch++ {
			plus, minus := q.wbSp.row(ch)
			img := i8Bytes(x[ch*inStride:])
			for _, pol := range policies {
				compileAt(pol)
				hm, om, hlo, hhi := mults(ch)
				act8 := pol == PolicyInt8
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
					q.dwColFused(dst[:nOut], img, plus, minus, hm, hlo, hhi, s, om, q.OutBias[ch], lo, gLo, gHi)
					for j := range dst {
						want := canaryI8
						if j < nOut && j >= gLo<<3 && j < gHi<<3 {
							want = dwChain(sums[ch][j], hm, s, om, q.OutBias[ch], q.ReLU, act8)
						}
						if dst[j] == want {
							continue
						}
						if ch == sat {
							// Outside the kernel's domain: the layer
							// below must not run it on this channel.
							satDiverged++
							break
						}
						t.Fatalf("%s ch %d pol %v s=%d: fused dst[%d]=%d, want %d", tag, ch, pol, s, j, dst[j], want)
					}
				}
			}
		}
		for _, pol := range policies {
			// The whole plane, or two random row bands as a hop passes.
			segs := [][2]int{{0, oh}}
			if rng.Intn(2) == 0 {
				top := rng.Intn(oh + 1)
				bot := top + rng.Intn(oh-top+1)
				segs = [][2]int{{0, top}, {bot, oh}}
			}
			out := make([]int8, cin*outStride)
			for i := range out {
				out[i] = canaryI8
			}
			compileAt(pol)
			q.dwSparse(arenaForConv(q, h, w), x, out, h, w, oh, ow, inStride, outStride, segs)
			for ch := 0; ch < cin; ch++ {
				hm, om, _, _ := mults(ch)
				s := int32(q.wcSign[ch])
				if pol == PolicyMixed {
					if s == 0 {
						pruned++
					}
					if ch == sat && s != 0 {
						saturated++
					}
				}
				for j := 0; j < nOut; j++ {
					want := dwChain(sums[ch][j], hm, s, om, q.OutBias[ch], q.ReLU, pol == PolicyInt8)
					inSeg := false
					for _, sg := range segs {
						inSeg = inSeg || (j >= sg[0]*ow && j < sg[1]*ow)
					}
					// Rows outside the segments keep their old value or
					// get the one a whole-plane pass gives.
					if got := out[ch*outStride+j]; got != want && (inSeg || got != canaryI8) {
						t.Fatalf("%s pol %v ch %d (wc %d, saturated %v) segs %v: dwSparse out[%d]=%d, want %d",
							tag, pol, ch, s, ch == sat, segs, j, got, want)
					}
				}
			}
		}
	}
	if heads == 0 || tails == 0 || pruned == 0 || saturated == 0 || satDiverged == 0 {
		t.Fatalf("sweep missed a case: %d head-tap and %d tail-load layers, %d pruned units, %d saturated live channels, %d fused runs off a saturated multiplier",
			heads, tails, pruned, saturated, satDiverged)
	}
}

// BenchmarkDepthwiseLayer times the paper shape's first depthwise layer,
// ds1.dw (64 channels of a 25×5 plane, 3×3 taps, R = 1), through dwSparse
// under both policies, on one engine per policy: over the whole plane, as a
// full window runs it, and over the bands a warm 12-frame hop recomputes,
// which the hop's interval rule (cleanOut) gives as rows {0,4} and {16,25}.
func BenchmarkDepthwiseLayer(b *testing.B) {
	const hop = 12
	for _, p := range []struct {
		pol  Policy
		name string
	}{{PolicyMixed, "mixed"}, {PolicyInt8, "int8"}} {
		e := SyntheticEngine(9, 0.35)
		e.Policy = p.pol
		e.ensureCompiled()
		c1, q := e.Convs[0], e.Convs[1]
		g1, g2 := &e.geom[0], &e.geom[1]
		a1, b1, s1 := cleanOut(c1, g1, 0, g1.h-hop, hop)
		a2, b2, _ := cleanOut(q, g2, a1, b1, s1)
		inStride, outStride := g2.inStride, g2.outStride
		rng := rand.New(rand.NewSource(1))
		x := make([]int8, int(q.Cin)*inStride)
		for i := range x {
			x[i] = int8(rng.Intn(256) - 128)
		}
		out := make([]int8, int(q.Cout)*outStride)
		a := newArena(e, false)
		for _, c := range []struct {
			name string
			segs [][2]int
		}{
			{"plane", [][2]int{{0, g2.oh}}},
			{"hop", [][2]int{{0, a2}, {b2, g2.oh}}},
		} {
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q.dwSparse(a, x, out, g2.h, g2.w, g2.oh, g2.ow, inStride, outStride, c.segs)
				}
			})
		}
	}
}

// TestBatchLanePathWithTelemetry pins that an observer changes nothing on
// the batch path serve lanes take: with an observer attached, an 11-frame
// InferBatch must stay bit-identical to the unobserved engine, and
// engine.infers must count every frame.
func TestBatchLanePathWithTelemetry(t *testing.T) {
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e := deployTestEngine(53)
		e.Policy = pol
		plain := deployTestEngine(53)
		plain.Policy = pol
		reg := telemetry.NewRegistry()
		obs := e.EnableTelemetry(reg, nil)

		rng := rand.New(rand.NewSource(7))
		const n = 11
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
