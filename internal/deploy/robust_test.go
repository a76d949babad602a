package deploy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/faultinject"
)

// makeTinyEngine hand-builds a small, fully consistent engine without any
// training, so corruption tests have a cheap valid artifact to mutate.
func makeTinyEngine() *Engine {
	ternary := func(n int) []int8 {
		vals := make([]int8, n)
		for i := range vals {
			vals[i] = int8(i%3 - 1)
		}
		return vals
	}
	mults := func(n int, m float64) []Mult {
		ms := make([]Mult, n)
		for i := range ms {
			ms[i] = NewMult(m)
		}
		return ms
	}
	dense := func(in, out, r int32) *QDense {
		return &QDense{
			In: in, Out: out, R: r,
			WbPacked: PackTernary(ternary(int(r * in))),
			WcPacked: PackTernary(ternary(int(out * r))),
			HidMul:   mults(int(r), 0.02),
			OutMul:   NewMult(0.5),
			OutScale: 0.01,
		}
	}
	conv := &QConv{
		Kind: kindStandard,
		Cin:  1, Cout: 2, KH: 3, KW: 3,
		Stride: 1, PadH: 1, PadW: 1, R: 2,
		WbPacked: PackTernary(ternary(2 * 1 * 3 * 3)),
		WcPacked: PackTernary(ternary(2 * 2)),
		HidMul:   mults(2, 0.01),
		OutMul:   mults(2, 0.5),
		OutBias:  []int32{1, -1},
		ReLU:     true,
		InScale:  0.05, HidScale: 0.001, OutScale: 0.02,
	}
	tree := &QTree{
		Depth: 1, ProjDim: 4, NumClasses: 3,
		Z:       dense(12, 4, 2), // 2 ch × 3×2 pooled map
		ZQ:      NewMult(0.5),
		ZScale:  0.02,
		Theta:   []int16{100, -200, 300, -400},
		TanhLUT: BuildTanhLUT(1e-3, 1),
		WScale:  0.01,
	}
	for k := 0; k < 3; k++ { // 1 internal + 2 leaves at depth 1
		tree.W = append(tree.W, dense(4, 3, 2))
		tree.V = append(tree.V, dense(4, 3, 2))
	}
	return &Engine{
		Frames: 6, Coeffs: 5, InScale: 0.05,
		Convs: []*QConv{conv},
		PoolK: 2, PoolS: 2,
		Tree: tree,
	}
}

func tinyEngineBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := makeTinyEngine().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTinyEngineValidAndInferable(t *testing.T) {
	e := makeTinyEngine()
	if err := e.Validate(); err != nil {
		t.Fatalf("tiny engine invalid: %v", err)
	}
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(i%7) * 0.01
	}
	scores, class, err := e.InferSafe(x)
	if err != nil {
		t.Fatalf("InferSafe: %v", err)
	}
	if len(scores) != 3 || class < 0 || class > 2 {
		t.Fatalf("scores %v class %d", scores, class)
	}
}

// A checksum-valid v2 model must round-trip byte-identically.
func TestV2RoundTripByteIdentical(t *testing.T) {
	data := tinyEngineBytes(t)
	loaded, err := ReadEngine(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again.Bytes()) {
		t.Fatalf("round trip not byte-identical: %d vs %d bytes", len(data), again.Len())
	}
}

// toV1 converts a v2 artifact into a legacy v1 artifact: version word
// rewritten, CRC32 trailer stripped. The body layout is unchanged.
func toV1(v2 []byte) []byte {
	v1 := append([]byte(nil), v2[:len(v2)-4]...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	return v1
}

func TestV1ArtifactsStillReadable(t *testing.T) {
	v2 := tinyEngineBytes(t)
	e, err := ReadEngine(bytes.NewReader(toV1(v2)))
	if err != nil {
		t.Fatalf("v1 artifact rejected: %v", err)
	}
	// Re-serialising upgrades it to v2, identical to the original.
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Fatal("v1→v2 upgrade not byte-identical to the original v2 artifact")
	}
}

func TestChecksumCatchesBitFlip(t *testing.T) {
	data := tinyEngineBytes(t)
	// Flip a bit in the last v2-body byte (the WScale float). The artifact
	// tail is [WScale][v3 policy byte][v3 calib count][CRC32], so len-10 is
	// the last byte that still parses and still validates — only the
	// checksum can catch it. (Bytes in the v3 section itself would trip the
	// structural checks in readV3 before the CRC is verified.)
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-10] ^= 0x01
	_, err := ReadEngine(bytes.NewReader(flipped))
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	// The same corruption in a v1 artifact (no checksum) is invisible — the
	// gap the v2 format closes.
	if _, err := ReadEngine(bytes.NewReader(toV1(flipped))); err != nil {
		t.Fatalf("v1 has no checksum; expected silent acceptance, got %v", err)
	}
}

// Every rejection must be one of the typed sentinels, never a panic.
func TestMutatedArtifactsRejectedWithTypedErrors(t *testing.T) {
	data := tinyEngineBytes(t)
	inj := faultinject.New(42)
	for i := 0; i < 200; i++ {
		var mutated []byte
		if i%2 == 0 {
			mutated = inj.FlipBits(data, 1+i%8)
		} else {
			mutated = inj.TruncateAt(data)
		}
		if bytes.Equal(mutated, data) {
			continue
		}
		e, err := ReadEngine(bytes.NewReader(mutated))
		if err == nil {
			// A flip may land in a float scale byte of a v? artifact... no:
			// v2 checksum covers the whole body, and header flips change
			// magic/version. Only an undetectable CRC collision could pass,
			// which 200 single-digit-bit mutations will not produce.
			t.Fatalf("mutation %d accepted (engine %v)", i, e != nil)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrShapeMismatch) {
			t.Fatalf("mutation %d: untyped error %v", i, err)
		}
	}
}

// Every truncation point of a valid artifact must fail cleanly.
func TestTinyEngineTruncatedEverywhere(t *testing.T) {
	data := tinyEngineBytes(t)
	for n := 0; n < len(data); n++ {
		if _, err := ReadEngine(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(data))
		}
	}
}

func TestValidateCatchesStructuralFaults(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Engine)
		want   error
	}{
		{"zero Cin", func(e *Engine) { e.Convs[0].Cin = 0 }, ErrCorrupt},
		{"negative KH", func(e *Engine) { e.Convs[0].KH = -3 }, ErrCorrupt},
		{"huge R overflows product", func(e *Engine) {
			e.Convs[0].R = maxDim
			e.Convs[0].Cin = maxDim
			e.Convs[0].KH = maxDim
		}, ErrCorrupt},
		{"short packed weights", func(e *Engine) { e.Convs[0].WbPacked = e.Convs[0].WbPacked[:1] }, ErrShapeMismatch},
		{"hid multiplier count", func(e *Engine) { e.Convs[0].HidMul = e.Convs[0].HidMul[:1] }, ErrShapeMismatch},
		{"bias count", func(e *Engine) { e.Convs[0].OutBias = append(e.Convs[0].OutBias, 0) }, ErrShapeMismatch},
		{"broken conv chain", func(e *Engine) { e.Convs[0].Cout = 5 }, ErrShapeMismatch},
		{"pool larger than map", func(e *Engine) { e.PoolK = 100 }, ErrShapeMismatch},
		{"zero pool stride", func(e *Engine) { e.PoolS = 0 }, ErrCorrupt},
		{"tree projection width", func(e *Engine) { e.Tree.Z.Out = 5 }, ErrShapeMismatch},
		{"theta length", func(e *Engine) { e.Tree.Theta = e.Tree.Theta[:2] }, ErrShapeMismatch},
		{"missing node", func(e *Engine) { e.Tree.W = e.Tree.W[:2] }, ErrShapeMismatch},
		{"LUT size", func(e *Engine) { e.Tree.TanhLUT = e.Tree.TanhLUT[:100] }, ErrShapeMismatch},
		{"node class count", func(e *Engine) { e.Tree.W[1].Out = 7 }, ErrShapeMismatch},
		{"depth out of range", func(e *Engine) { e.Tree.Depth = maxTreeDepth + 1 }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := makeTinyEngine()
			tc.mutate(e)
			err := e.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadEngineRejectsOversizedShift patches one multiplier's shift byte
// in a serialized engine — conv HidMul and OutMul, dense HidMul and OutMul,
// the tree's ZQ — and re-seals the CRC, so only Validate's bound can catch
// it: Shift 62 must load, anything above must fail with ErrCorrupt. Past 62
// the Go requant rows disagree with Mult.Apply, and the AVX2 requant
// kernels' shift emulation is defined only on 1–62.
func TestReadEngineRejectsOversizedShift(t *testing.T) {
	sites := []struct {
		name string
		mult func(e *Engine) *Mult
	}{
		{"conv HidMul", func(e *Engine) *Mult { return &e.Convs[0].HidMul[1] }},
		{"conv OutMul", func(e *Engine) *Mult { return &e.Convs[0].OutMul[0] }},
		{"dense HidMul", func(e *Engine) *Mult { return &e.Tree.Z.HidMul[0] }},
		{"dense OutMul", func(e *Engine) *Mult { return &e.Tree.W[2].OutMul }},
		{"tree ZQ", func(e *Engine) *Mult { return &e.Tree.ZQ }},
	}
	data := tinyEngineBytes(t)
	for _, site := range sites {
		// The site's shift byte is the one body byte that moves when only
		// that shift does.
		e := makeTinyEngine()
		site.mult(e).Shift ^= 1
		var moved bytes.Buffer
		if _, err := e.WriteTo(&moved); err != nil {
			t.Fatal(err)
		}
		off := -1
		for i := 0; i < len(data)-4; i++ {
			if data[i] != moved.Bytes()[i] {
				off = i
				break
			}
		}
		if off < 0 || data[off]^moved.Bytes()[off] != 1 {
			t.Fatalf("%s: no single shift byte found (offset %d)", site.name, off)
		}
		for _, shift := range []byte{maxShift, maxShift + 1, 64, 65, 255} {
			bad := append([]byte(nil), data...)
			bad[off] = shift
			binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.ChecksumIEEE(bad[8:len(bad)-4]))
			_, err := ReadEngine(bytes.NewReader(bad))
			switch {
			case shift <= maxShift && err != nil:
				t.Fatalf("%s: shift %d rejected: %v", site.name, shift, err)
			case shift > maxShift && !errors.Is(err, ErrCorrupt):
				t.Fatalf("%s: shift %d: got %v, want ErrCorrupt", site.name, shift, err)
			}
		}
	}
}

func TestInferSafeRecoversFromPanic(t *testing.T) {
	e := makeTinyEngine()
	// Sabotage the engine after validation would have passed: a truncated
	// multiplier array makes QDense.Forward index out of range.
	e.Tree.Z.HidMul = e.Tree.Z.HidMul[:1]
	x := make([]float32, e.Frames*e.Coeffs)
	if _, _, err := e.InferSafe(x); err == nil {
		t.Fatal("expected an error from the sabotaged engine")
	}
}

func TestInferSafeRejectsWrongLength(t *testing.T) {
	e := makeTinyEngine()
	_, _, err := e.InferSafe(make([]float32, 7))
	if !errors.Is(err, ErrShapeMismatch) {
		t.Fatalf("got %v, want ErrShapeMismatch", err)
	}
}
