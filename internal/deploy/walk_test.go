package deploy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleGather16 is oracleGather over int16 planes: acc[j] =
// Σ_p w[p]·planes[p·stride+j] for j in [0, stride), read off the dense row.
func oracleGather16(planes []int16, w []int8, stride int) []int32 {
	acc := make([]int32, stride)
	for p, v := range w {
		for j := 0; j < stride && v != 0; j++ {
			acc[j] += int32(v) * int32(planes[p*stride+j])
		}
	}
	return acc
}

// staleAcc is stale accumulator garbage every walk must overwrite.
const staleAcc = 0x5A5A5A5A

// walkCase is one random ternary matrix, dense and compiled, over random
// int8 and int16 planes.
type walkCase struct {
	w    []int8 // dense rows×taps, the oracles' source
	sp   sparseRows
	rows int
	taps int
	p8   []int8
	p16  []int16
}

// dense returns row r of the dense matrix.
func (c *walkCase) dense(r int) []int8 { return c.w[r*c.taps : (r+1)*c.taps] }

// newWalkCase draws a rows×taps matrix whose every row holds an index at the
// last plane (densities 0, 0.35 and 1 besides), over planes at the given
// stride.
func newWalkCase(rng *rand.Rand, taps, stride int) walkCase {
	densities := []float64{0, 0.35, 1}
	rows := len(densities)
	w := make([]int8, 0, rows*taps)
	for _, d := range densities {
		row := ternaryRows(rng, 1, taps, d)
		if taps > 0 {
			row[taps-1] = int8(1 - 2*rng.Intn(2))
		}
		w = append(w, row...)
	}
	c := walkCase{w: w, sp: compileRows(w, rows, taps), rows: rows, taps: taps,
		p8: make([]int8, taps*stride), p16: make([]int16, taps*stride)}
	for i := range c.p8 {
		c.p8[i] = int8(rng.Intn(1 << 8))
		c.p16[i] = int16(rng.Intn(1 << 16))
	}
	return c
}

// checkWalk runs walk into a stale n+8 accumulator and compares its first n
// columns with want, and that the 8 columns past n are untouched.
func checkWalk(t *testing.T, name string, n int, want []int32, walk func(acc []int32)) {
	t.Helper()
	acc := make([]int32, n+8)
	for j := range acc {
		acc[j] = staleAcc
	}
	walk(acc[:n])
	for j := 0; j < n; j++ {
		if acc[j] != want[j] {
			t.Fatalf("%s: acc[%d]=%d, want %d", name, j, acc[j], want[j])
		}
	}
	for j := n; j < len(acc); j++ {
		if acc[j] != staleAcc {
			t.Fatalf("%s: wrote acc[%d] past the %d columns", name, j, n)
		}
	}
}

// TestRowWalksMatchOracle drives both row walks over int8 and int16 planes
// against the dense-row oracles: the AVX2 assembly walk when the host runs
// it, the portable Go walk (gatherPlanesI8W, gather) always, and the
// dispatching sparseRows walk the engine calls. Tap counts cross every mask
// word boundary (63, 64, 65, 127, 128, 129: a last word with one bit, a
// full word with bit 63 set, a first bit of the next word) and the
// 256-plane SWAR chunk; column counts cover the 64-column tile and every
// combination of the 32-, 16- and 8-column remainder passes, and a lane of
// 125·8; plane strides run past the column count (as when a pointwise conv
// reads its input at the caller's channel stride), including strides off
// the 8-column grid; every row reads the last plane and every accumulator
// starts as garbage.
func TestRowWalksMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, taps := range []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 255, 256, 300} {
		for _, n := range []int{8, 16, 24, 40, 48, 56, 64, 72, 80, 104, 120, 128, 1000} {
			for _, extra := range []int{0, 3, 8} {
				stride := n + extra
				c := newWalkCase(rng, taps, stride)
				p8 := i8Bytes(c.p8)
				for r := 0; r < c.rows; r++ {
					plus, minus := c.sp.row(r)
					masks := c.sp.rowMasks(r)
					want8 := oracleGather(c.p8, c.dense(r), stride)
					want16 := oracleGather16(c.p16, c.dense(r), stride)
					tag := fmt.Sprintf("taps=%d n=%d stride=%d row=%d", taps, n, stride, r)
					checkWalk(t, "go i8 "+tag, stride, want8, func(acc []int32) {
						gatherPlanesI8W(acc, p8, plus, minus, stride)
					})
					checkWalk(t, "go i16 "+tag, stride, want16, func(acc []int32) {
						gather(acc, c.p16, plus, minus, stride)
					})
					checkWalk(t, "dispatch i8 "+tag, stride, want8, func(acc []int32) {
						c.sp.walkI8(r, acc, p8, stride)
					})
					checkWalk(t, "dispatch i16 "+tag, stride, want16, func(acc []int32) {
						c.sp.walkI16(r, acc, c.p16, stride)
					})
					if !rowWalkAVX2 {
						continue
					}
					checkWalk(t, "avx2 i8 "+tag, n, want8, func(acc []int32) {
						walkI8AVX2(acc, p8, masks, stride)
					})
					checkWalk(t, "avx2 i16 "+tag, n, want16, func(acc []int32) {
						walkI16AVX2(acc, c.p16, masks, stride)
					})
				}
			}
		}
	}
}

// TestRowWalkShortPlanesPanics hands both walks a plane buffer one element
// short of the matrix's plane count × stride, with a row that reads the last
// plane: each must panic rather than read past the buffer. The capacity is
// cut too, since a Go reslice may legally reach into it.
func TestRowWalkShortPlanesPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, stride := range []int{8, 64, 72} {
		c := newWalkCase(rng, 12, stride)
		n := len(c.p8) - 1
		short8 := i8Bytes(c.p8)[:n:n]
		short16 := c.p16[:n:n]
		plus, minus := c.sp.row(1)
		acc := make([]int32, stride)
		walks := []struct {
			name string
			run  func()
		}{
			{"go i8", func() { gatherPlanesI8W(acc, short8, plus, minus, stride) }},
			{"go i16", func() { gather(acc, short16, plus, minus, stride) }},
			{"dispatch i8", func() { c.sp.walkI8(1, acc, short8, stride) }},
			{"dispatch i16", func() { c.sp.walkI16(1, acc, short16, stride) }},
		}
		for _, w := range walks {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s at stride %d: no panic on a short plane buffer", w.name, stride)
					}
				}()
				w.run()
			}()
		}
	}
}

// rowWalkBenchCols are the column counts the row-walk benchmarks time: a
// frame's 128-column paper-shape plane, and the 56- and 72-column bands a
// warm 12-frame hop recomputes in conv0 and ds1.pw.
var rowWalkBenchCols = []int{128, 56, 72}

// BenchmarkRowWalkI8 times one paper-shape pointwise hidden stage — 48 rows
// over 64 int8 planes, density 0.35 — at each of rowWalkBenchCols through
// each walk the host runs, so the AVX2 walk's speedup over the Go walk can
// be re-checked.
func BenchmarkRowWalkI8(b *testing.B) {
	const rows, planes = 48, 64
	for _, cols := range rowWalkBenchCols {
		rng := rand.New(rand.NewSource(1))
		sp := compileRows(ternaryRows(rng, rows, planes, 0.35), rows, planes)
		src := make([]byte, planes*cols)
		rng.Read(src)
		acc := make([]int32, cols)
		b.Run(fmt.Sprintf("cols=%d/go", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					plus, minus := sp.row(r)
					gatherPlanesI8W(acc, src, plus, minus, cols)
				}
			}
		})
		b.Run(fmt.Sprintf("cols=%d/avx2", cols), func(b *testing.B) {
			if !rowWalkAVX2 {
				b.Skip("no AVX2 row walk in this build or on this CPU")
			}
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					sp.walkI8(r, acc, src, cols)
				}
			}
		})
	}
}

// BenchmarkRowWalkI16 is BenchmarkRowWalkI8 for the mixed policy's Wc stage:
// 64 rows over 48 int16 hidden planes, density 0.35.
func BenchmarkRowWalkI16(b *testing.B) {
	const rows, planes = 64, 48
	for _, cols := range rowWalkBenchCols {
		rng := rand.New(rand.NewSource(2))
		sp := compileRows(ternaryRows(rng, rows, planes, 0.35), rows, planes)
		src := make([]int16, planes*cols)
		for i := range src {
			src[i] = int16(rng.Intn(1 << 16))
		}
		acc := make([]int32, cols)
		b.Run(fmt.Sprintf("cols=%d/go", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					plus, minus := sp.row(r)
					gather(acc, src, plus, minus, cols)
				}
			}
		})
		b.Run(fmt.Sprintf("cols=%d/avx2", cols), func(b *testing.B) {
			if !rowWalkAVX2 {
				b.Skip("no AVX2 row walk in this build or on this CPU")
			}
			for i := 0; i < b.N; i++ {
				for r := 0; r < rows; r++ {
					sp.walkI16(r, acc, src, cols)
				}
			}
		})
	}
}

// requantCase is one requant row: a multiplier, a bias and ReLU cut, and an
// n-column row of accumulators of mixed magnitude, extremes included, at the
// head of a longer accumulator.
type requantCase struct {
	m    Mult
	b    int32
	relu bool
	n    int
	acc  []int32
}

// requantCases draws the oracle sweep: every shift 1–62 (both sides of 32,
// where the kernels' sign repair switches on) with positive, negative and
// extreme mantissas — small shifts make multipliers ≥ 1, whose int32
// truncation wraps before the clamp — plus the zero Mult, zero mantissas
// and the saturated Mult. Row lengths cycle through 0–70; accumulators run
// over the whole int32 range at every magnitude, ±2³¹ included, and the
// accumulator runs up to 7 columns past the row, as a padded one does.
func requantCases(rng *rand.Rand) []requantCase {
	var ms []Mult
	for shift := uint8(1); shift <= 62; shift++ {
		for _, mant := range []int32{
			int32(rng.Uint32()), -int32(rng.Uint32() >> 1), int32(rng.Intn(1 << 16)),
			math.MaxInt32, math.MinInt32, 1, -1,
		} {
			ms = append(ms, Mult{Mant: mant, Shift: shift})
		}
	}
	ms = append(ms, Mult{}, Mult{Shift: 40}, Mult{Mant: 1 << 30}, Mult{Mant: -12345})
	extremes := []int32{math.MinInt32, math.MaxInt32, 0, 1, -1, math.MinInt32 + 1}
	cases := make([]requantCase, len(ms))
	for i, m := range ms {
		n := i % 71
		acc := make([]int32, n+rng.Intn(8))
		for j := range acc {
			acc[j] = int32(rng.Uint32()) >> rng.Intn(32)
			if rng.Intn(8) == 0 {
				acc[j] = extremes[rng.Intn(len(extremes))]
			}
		}
		b := int32(rng.Intn(401) - 200)
		if i%5 == 0 {
			b = int32(rng.Uint32())
		}
		cases[i] = requantCase{m: m, b: b, relu: rng.Intn(2) == 0, n: n, acc: acc}
	}
	return cases
}

// Canaries past a requant row's last column: every row must leave them.
const (
	canaryI8  int8  = 0x5A
	canaryI16 int16 = 0x5A5A
)

// checkRequant runs one requant row over a canary-filled n+8 buffer and
// compares its first checked columns with want; every later element of the
// buffer, inside the row or past it, must still hold the canary.
func checkRequant[T int8 | int16](t *testing.T, name string, n, checked int, canary T, want []T, run func(dst []T)) {
	t.Helper()
	buf := make([]T, n+8)
	for j := range buf {
		buf[j] = canary
	}
	run(buf[:n])
	for j := 0; j < checked; j++ {
		if buf[j] != want[j] {
			t.Fatalf("%s: dst[%d]=%d, want %d", name, j, buf[j], want[j])
		}
	}
	for j := checked; j < len(buf); j++ {
		if buf[j] != canary {
			t.Fatalf("%s: wrote dst[%d]=%d outside the %d columns it owns", name, j, buf[j], checked)
		}
	}
}

// TestRequantRowsMatchOracle drives the requant rows — the AVX2 kernels
// when the host runs them, the portable Go loop requantRowGo always, and
// the dispatching rows the engine calls — against a per-element Mult.Apply,
// bias, ReLU and clamp over requantCases, at each of the three (b, lo, hi)
// shapes the engine uses: the int8 output row (bias, floor 0 or −128, 127),
// the int8 hidden rescale (0, −128, 127) and the int16 hidden rescale
// (0, −32768, 32767). The kernels are driven only inside their exact domain
// (Shift 1–62) and own just the whole 8-column groups of a row; the Go loop
// and the dispatch must handle every Mult and length.
func TestRequantRowsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for i, c := range requantCases(rng) {
		n, m, b, relu := c.n, c.m, c.b, c.relu
		var lo int32 = -128
		if relu {
			lo = 0
		}
		out8 := make([]int8, n)
		hid8 := make([]int8, n)
		hid16 := make([]int16, n)
		for j, a := range c.acc[:n] {
			v := m.Apply(a)
			o := v + b
			if o < lo {
				o = lo
			}
			out8[j], hid8[j], hid16[j] = clampI8(o), clampI8(v), clampI16(v)
		}
		tag := fmt.Sprintf("case %d (m=%+v b=%d relu=%v n=%d)", i, m, b, relu, n)
		checkRequant(t, "go i8 "+tag, n, n, canaryI8, out8, func(dst []int8) {
			requantRowGo(dst, c.acc, m, b, lo, 127)
		})
		checkRequant(t, "go hid8 "+tag, n, n, canaryI8, hid8, func(dst []int8) {
			requantRowGo(dst, c.acc, m, 0, -128, 127)
		})
		checkRequant(t, "go hid16 "+tag, n, n, canaryI16, hid16, func(dst []int16) {
			requantRowGo(dst, c.acc, m, 0, -32768, 32767)
		})
		checkRequant(t, "dispatch i8 "+tag, n, n, canaryI8, out8, func(dst []int8) {
			requantRowI8(dst, c.acc, m, b, relu)
		})
		checkRequant(t, "dispatch hid8 "+tag, n, n, canaryI8, hid8, func(dst []int8) {
			requantRowI8(dst, c.acc, m, 0, false)
		})
		checkRequant(t, "dispatch hid16 "+tag, n, n, canaryI16, hid16, func(dst []int16) {
			requantRowHid16(dst, c.acc, m)
		})
		if !rowWalkAVX2 || m.Shift < 1 || m.Shift > maxShift {
			continue
		}
		groups := n &^ 7
		checkRequant(t, "avx2 i8 "+tag, n, groups, canaryI8, out8, func(dst []int8) {
			requantI8AVX2(dst, c.acc, m.Mant, m.Shift, b, lo)
		})
		checkRequant(t, "avx2 hid8 "+tag, n, groups, canaryI8, hid8, func(dst []int8) {
			requantI8AVX2(dst, c.acc, m.Mant, m.Shift, 0, -128)
		})
		checkRequant(t, "avx2 hid16 "+tag, n, groups, canaryI16, hid16, func(dst []int16) {
			requantHid16AVX2(dst, c.acc, m.Mant, m.Shift)
		})
	}
}

// requantBenchRow is one paper-shape requant row: 125 real columns of a
// 128-wide accumulator row walked from int8 planes, with the multiplier
// NewMult gives a typical hidden scale.
func requantBenchRow() (acc []int32, m Mult) {
	rng := rand.New(rand.NewSource(3))
	acc = make([]int32, 128)
	for j := range acc {
		acc[j] = int32(rng.Intn(1<<14) - 1<<13)
	}
	return acc, NewMult(0.0123)
}

// BenchmarkRequantRowI8 times one paper-shape output requant row (bias and
// ReLU) through the Go loop and through the dispatching row, which runs the
// AVX2 kernel on the first 120 columns and the Go loop on the last 5.
func BenchmarkRequantRowI8(b *testing.B) {
	acc, m := requantBenchRow()
	dst := make([]int8, 125)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			requantRowGo(dst, acc, m, 3, 0, 127)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !rowWalkAVX2 {
			b.Skip("no AVX2 requant kernel in this build or on this CPU")
		}
		for i := 0; i < b.N; i++ {
			requantRowI8(dst, acc, m, 3, true)
		}
	})
}

// BenchmarkRequantRowHid16 is BenchmarkRequantRowI8 for the mixed policy's
// int16 hidden rescale.
func BenchmarkRequantRowHid16(b *testing.B) {
	acc, m := requantBenchRow()
	dst := make([]int16, 125)
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			requantRowGo(dst, acc, m, 0, -32768, 32767)
		}
	})
	b.Run("avx2", func(b *testing.B) {
		if !rowWalkAVX2 {
			b.Skip("no AVX2 requant kernel in this build or on this CPU")
		}
		for i := 0; i < b.N; i++ {
			requantRowHid16(dst, acc, m)
		}
	})
}
