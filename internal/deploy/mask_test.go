package deploy

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkMasks compares every row of one compiled matrix with the dense
// ternary rows it was compiled from: bit p of the +1 (−1) mask set exactly
// where column p holds +1 (−1), no bit at or past the column count, and the
// nonzero count equal to the dense one.
func checkMasks(t *testing.T, name string, sp sparseRows, w []int8, rows, cols int) {
	t.Helper()
	if len(w) != rows*cols {
		t.Fatalf("%s: %d dense entries, want %d×%d", name, len(w), rows, cols)
	}
	if sp.planes != cols || sp.words != (cols+63)/64 || len(sp.mask) != 2*rows*sp.words {
		t.Fatalf("%s: %d planes in %d words, %d mask words; want %d planes, %d rows", name, sp.planes, sp.words, len(sp.mask), cols, rows)
	}
	nnz := 0
	for r := 0; r < rows; r++ {
		plus, minus := sp.row(r)
		for p := 0; p < 64*sp.words; p++ {
			var v int8
			if p < cols {
				v = w[r*cols+p]
			}
			gotP := plus[p/64]>>(p%64)&1 == 1
			gotM := minus[p/64]>>(p%64)&1 == 1
			if gotP != (v > 0) || gotM != (v < 0) {
				t.Fatalf("%s row %d plane %d: +1 bit %v, −1 bit %v, dense %d", name, r, p, gotP, gotM, v)
			}
			if v != 0 {
				nnz++
			}
		}
	}
	if sp.nnz != nnz {
		t.Fatalf("%s: nnz %d, dense %d", name, sp.nnz, nnz)
	}
}

// TestCompiledMasksMatchDense checks every compiled mask row of the paper
// shape — the tree's 320-plane Z projection (five mask words) included —
// and of random small engines against the dense rows UnpackTernary gives.
func TestCompiledMasksMatchDense(t *testing.T) {
	engines := []*Engine{SyntheticEngine(9, 0.35), SyntheticEngine(3, 1)}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 6; i++ {
		engines = append(engines, randSmallEngine(rng))
	}
	z := 0
	for n, e := range engines {
		e.ensureCompiled()
		for i, q := range e.Convs {
			wb, wc := q.ternaries()
			tag := fmt.Sprintf("engine %d conv %d", n, i)
			if q.Kind == kindDepthwise {
				checkMasks(t, tag+" Wb", q.wbSp, wb, int(q.Cin*q.R), int(q.KH*q.KW))
				for hu, s := range q.wcSign {
					if s != wc[hu] {
						t.Fatalf("%s: Wc sign %d is %d, dense %d", tag, hu, s, wc[hu])
					}
				}
				continue
			}
			checkMasks(t, tag+" Wb", q.wbSp, wb, int(q.R), int(q.Cin*q.KH*q.KW))
			checkMasks(t, tag+" Wc", q.wcSp, wc, int(q.Cout), int(q.R))
		}
		tr := e.Tree
		for j, d := range append([]*QDense{tr.Z}, append(tr.W, tr.V...)...) {
			wb, wc := d.ternaries()
			tag := fmt.Sprintf("engine %d dense %d", n, j)
			checkMasks(t, tag+" Wb", d.wbSp, wb, int(d.R), int(d.In))
			checkMasks(t, tag+" Wc", d.wcSp, wc, int(d.Out), int(d.R))
			if d.wbSp.words > 1 {
				z++
			}
		}
	}
	if z < 2 {
		t.Fatalf("only %d matrices span more than one mask word", z)
	}
}

// TestWeightFootprint pins the paper shape's resident weights: at most
// 36,000 B at the mixed policy, every component counted once, and the masks
// 2 bits per weight padded to whole 64-bit words per row — 15,104 B, of
// which the tree's Z projection (24 rows of five words per sign) takes
// 1,920. An engine holds only its own policy's requantisers: 6,272 B mixed
// (35,568 B in all), 11,008 B with the derived int8 set (40,304 B).
func TestWeightFootprint(t *testing.T) {
	e := SyntheticEngine(9, 0.35)
	f := e.WeightFootprint()
	if got := e.WeightBytes(); got != f.Total() || got != f.Masks+f.Packed+f.Requant+f.Tables+f.Tree {
		t.Fatalf("WeightBytes %d, components %+v sum to %d", got, f, f.Total())
	}
	if f.Total() > 36000 {
		t.Fatalf("resident weights %d B, want at most 36,000 (%+v)", f.Total(), f)
	}
	e8, err := e.WithPolicy(PolicyInt8)
	if err != nil {
		t.Fatal(err)
	}
	f8 := e8.WeightFootprint()
	if f.Requant != 6272 || f.Total() != 35568 || f8.Requant != 11008 || f8.Total() != 40304 {
		t.Fatalf("requantisers / total: mixed %d / %d B, int8 %d / %d B; want 6,272 / 35,568 and 11,008 / 40,304",
			f.Requant, f.Total(), f8.Requant, f8.Total())
	}
	if f.Masks != 15104 {
		t.Fatalf("masks %d B, want 15,104", f.Masks)
	}
	if z := 8 * len(e.Tree.Z.wbSp.mask); z != 1920 {
		t.Fatalf("tree Z Wb masks %d B, want 1,920", z)
	}
	for _, c := range []int64{f.Packed, f.Requant, f.Tables, f.Tree} {
		if c <= 0 {
			t.Fatalf("empty component in %+v", f)
		}
	}
}
