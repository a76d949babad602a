package deploy

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/opcount"
	"repro/internal/speechcmd"
	"repro/internal/strassen"
	"repro/internal/tensor"
	"repro/internal/train"
)

func TestMultRoundTripAccuracy(t *testing.T) {
	for _, m := range []float64{1, 0.5, 0.123, 3.7, -0.8, -12.5, 1e-4} {
		mu := NewMult(m)
		for _, v := range []int32{0, 1, -1, 100, -100, 30000, -30000} {
			got := mu.Apply(v)
			want := math.Round(float64(v) * m)
			if math.Abs(float64(got)-want) > 1.01 {
				t.Fatalf("Mult(%v).Apply(%d)=%d, want ≈%v", m, v, got, want)
			}
		}
	}
}

func TestMultZeroAndExtremes(t *testing.T) {
	if NewMult(0).Apply(1000) != 0 {
		t.Fatal("zero multiplier must yield 0")
	}
	if NewMult(math.NaN()).Apply(5) != 0 || NewMult(math.Inf(1)).Apply(5) != 0 {
		t.Fatal("non-finite multipliers must yield 0")
	}
	// Tiny multipliers round to zero output for small inputs.
	if got := NewMult(1e-12).Apply(100); got != 0 {
		t.Fatalf("tiny multiplier gave %d", got)
	}
}

// Property: fixed-point multiply matches float multiply within one unit.
func TestQuickMultMatchesFloat(t *testing.T) {
	f := func(mRaw int16, v int16) bool {
		m := float64(mRaw) / 4096 // ±8 range
		mu := NewMult(m)
		got := float64(mu.Apply(int32(v)))
		want := math.Round(float64(v) * m)
		return math.Abs(got-want) <= 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	vals := []int8{0, 1, -1, 1, 1, 0, -1, 0, 1}
	got := UnpackTernary(PackTernary(vals), len(vals))
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("round trip %v -> %v", vals, got)
		}
	}
}

// Property: pack/unpack is the identity on ternary data and packs 4:1.
func TestQuickPackRoundTrip(t *testing.T) {
	f := func(raw []int8) bool {
		vals := make([]int8, len(raw))
		for i, v := range raw {
			switch {
			case v > 42:
				vals[i] = 1
			case v < -42:
				vals[i] = -1
			}
		}
		packed := PackTernary(vals)
		if len(packed) != (len(vals)+3)/4 {
			return false
		}
		back := UnpackTernary(packed, len(vals))
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTanhLUTShape(t *testing.T) {
	lut := BuildTanhLUT(1.0/1000, 1)
	if len(lut) != 1<<tanhLUTBits {
		t.Fatalf("LUT size %d", len(lut))
	}
	// Monotone non-decreasing, odd-ish around the centre, saturating.
	for i := 1; i < len(lut); i++ {
		if lut[i] < lut[i-1] {
			t.Fatalf("LUT not monotone at %d", i)
		}
	}
	if lut[0] > -30000 || lut[len(lut)-1] < 30000 {
		t.Fatalf("LUT does not saturate: ends %d %d", lut[0], lut[len(lut)-1])
	}
}

var tinyOnce sync.Once
var tinyH *core.Hybrid
var tinyX, tinyTX *tensor.Tensor
var tinyY, tinyTY []int

// trainTinyHybrid trains (once per test binary) a tiny fixed-ternary hybrid
// for the compile tests.
func trainTinyHybrid(t testing.TB) (*core.Hybrid, *tensor.Tensor, []int, *tensor.Tensor, []int) {
	t.Helper()
	tinyOnce.Do(func() { tinyH, tinyX, tinyY, tinyTX, tinyTY = buildTinyHybrid() })
	return tinyH, tinyX, tinyY, tinyTX, tinyTY
}

func buildTinyHybrid() (*core.Hybrid, *tensor.Tensor, []int, *tensor.Tensor, []int) {
	dsCfg := speechcmd.DefaultConfig()
	dsCfg.SamplesPerCls = 24
	ds := speechcmd.Generate(dsCfg)
	x, y := speechcmd.Batch(ds.Train, 0, len(ds.Train))
	tx, ty := speechcmd.Batch(ds.Test, 0, len(ds.Test))
	cfg := core.DefaultConfig(speechcmd.NumClasses)
	cfg.WidthMult = 0.15
	cfg.ProjDim = 8
	h := core.New(cfg, rand.New(rand.NewSource(1)))
	const per = 10
	base := train.Config{
		BatchSize: 20,
		Schedule:  train.StepSchedule{Base: 0.01, Every: 6, Factor: 0.3},
		Loss:      train.MultiClassHinge,
		Seed:      1,
		OnEpoch: func(epoch int, loss float64) {
			h.AnnealSigma(float64(epoch)/float64(3*per), 10)
		},
	}
	train.RunStaged(h, x, y, train.StagedConfig{Base: base, WarmupEpochs: per, QuantEpochs: per, FixedEpochs: per})
	return h, x, y, tx, ty
}

func TestCompileRejectsUnfixedModel(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.WidthMult = 0.1
	h := core.New(cfg, rand.New(rand.NewSource(2)))
	calib := tensor.New(4, core.InputDim).Rand(rand.New(rand.NewSource(3)), 1)
	if _, err := Compile(h, calib); err != ErrNotFixed {
		t.Fatalf("got %v, want ErrNotFixed", err)
	}
}

func TestCompileRejectsUncompressedModel(t *testing.T) {
	cfg := core.DefaultConfig(12)
	cfg.WidthMult = 0.1
	cfg.Strassen = false
	h := core.New(cfg, rand.New(rand.NewSource(2)))
	calib := tensor.New(4, core.InputDim).Rand(rand.New(rand.NewSource(3)), 1)
	if _, err := Compile(h, calib); err == nil {
		t.Fatal("expected error for uncompressed hybrid")
	}
}

func TestCompiledEngineAgreesWithFloatModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, x, _, tx, ty := trainTinyHybrid(t)
	eng, err := Compile(h, x)
	if err != nil {
		t.Fatal(err)
	}
	// Compare predictions on the test split: the integer engine should agree
	// with the float model on the overwhelming majority.
	floatPred := h.Forward(tx, false).ArgmaxRows()
	agree, correct := 0, 0
	n := tx.Dim(0)
	dim := tx.Dim(1)
	for i := 0; i < n; i++ {
		_, cls := eng.Infer(tx.Data[i*dim : (i+1)*dim])
		if cls == floatPred[i] {
			agree++
		}
		if cls == ty[i] {
			correct++
		}
	}
	if float64(agree)/float64(n) < 0.8 {
		t.Fatalf("integer engine agrees with float model on only %d/%d", agree, n)
	}
	floatAcc := train.Accuracy(h, tx, ty, 64)
	intAcc := float64(correct) / float64(n)
	if intAcc < floatAcc-0.15 {
		t.Fatalf("integer accuracy %.3f far below float %.3f", intAcc, floatAcc)
	}
}

func TestEngineSerializationRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, x, _, tx, _ := trainTinyHybrid(t)
	eng, err := Compile(h, x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := eng.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions before and after the round trip.
	dim := tx.Dim(1)
	for i := 0; i < tx.Dim(0); i++ {
		s1, c1 := eng.Infer(tx.Data[i*dim : (i+1)*dim])
		s2, c2 := loaded.Infer(tx.Data[i*dim : (i+1)*dim])
		if c1 != c2 {
			t.Fatalf("sample %d: class %d vs %d after round trip", i, c1, c2)
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("sample %d: scores differ after round trip", i)
			}
		}
	}
}

func TestReadEngineRejectsGarbage(t *testing.T) {
	if _, err := ReadEngine(bytes.NewReader([]byte("not a model at all"))); err == nil {
		t.Fatal("expected error for garbage input")
	}
	if _, err := ReadEngine(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestEngineSizeIsCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, x, _, _, _ := trainTinyHybrid(t)
	eng, err := Compile(h, x)
	if err != nil {
		t.Fatal(err)
	}
	size := eng.Size()
	if size <= 0 {
		t.Fatal("non-positive serialised size")
	}
	// The packed engine must be far smaller than 4-byte float storage of the
	// same parameter count.
	var floatBytes int64
	for _, p := range h.Params() {
		floatBytes += int64(p.W.Size()) * 4
	}
	if size >= floatBytes/2 {
		t.Fatalf("packed engine %dB not much smaller than float %dB", size, floatBytes)
	}
}

func TestIm2colI8MatchesFloatIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const c, h, w, kh, kw, stride, pad = 2, 6, 5, 3, 3, 2, 1
	img8 := make([]int8, c*h*w)
	imgF := tensor.New(c, h, w)
	for i := range img8 {
		v := int8(rng.Intn(255) - 127)
		img8[i] = v
		imgF.Data[i] = float32(v)
	}
	cols8, oh, ow := im2colI8(img8, c, h, w, kh, kw, stride, pad, pad)
	colsF := tensor.Im2Col(imgF, kh, kw, stride, pad, pad)
	if oh*ow*c*kh*kw != len(cols8) {
		t.Fatalf("col size %d", len(cols8))
	}
	for i := range cols8 {
		if float32(cols8[i]) != colsF.Data[i] {
			t.Fatalf("im2colI8 mismatch at %d: %d vs %v", i, cols8[i], colsF.Data[i])
		}
	}
}

func TestClamps(t *testing.T) {
	if clampI8(200) != 127 || clampI8(-200) != -128 || clampI8(5) != 5 {
		t.Fatal("clampI8 wrong")
	}
	if clampI16(40000) != 32767 || clampI16(-40000) != -32768 || clampI16(-7) != -7 {
		t.Fatal("clampI16 wrong")
	}
}

var _ = strassen.Fixed // keep import for documentation cross-reference

func TestCostReportAgreesWithOpcount(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, x, _, _, _ := trainTinyHybrid(t)
	eng, err := Compile(h, x)
	if err != nil {
		t.Fatal(err)
	}
	cost := eng.CostReport()
	r := opcount.Count(h, core.InputDim)
	// Two independent implementations of the paper's accounting must agree:
	// the engine counts nonzeros in its packed matrices, opcount in the
	// float model's ternary state. Muls exactly; adds up to the θ dot
	// products (which opcount books as tree MACs).
	if cost.Muls != r.Total.Muls {
		t.Fatalf("engine muls %d != opcount muls %d", cost.Muls, r.Total.Muls)
	}
	diff := cost.Adds - r.Total.AddsNNZ
	if diff < 0 {
		diff = -diff
	}
	if diff > r.Total.MACs+8 { // θ MACs tolerance
		t.Fatalf("engine adds %d vs opcount nnz adds %d (MACs %d)", cost.Adds, r.Total.AddsNNZ, r.Total.MACs)
	}
}

func TestNnzPacked(t *testing.T) {
	vals := []int8{0, 1, -1, 0, 1, 1, 0, 0, -1}
	packed := PackTernary(vals)
	if got := nnzPacked(packed, len(vals)); got != 5 {
		t.Fatalf("nnzPacked=%d, want 5", got)
	}
}

func TestReadEngineTruncatedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	h, x, _, _, _ := trainTinyHybrid(t)
	eng, err := Compile(h, x)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must yield an error, never a panic or a
	// silently short engine.
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.9, 0.99} {
		n := int(float64(len(full)) * frac)
		if _, err := ReadEngine(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(full))
		}
	}
}

// TestPoolFullWidthMatchesScalar pins poolInto's full-width windows (k = w,
// the paper shape's 5×5 pool over a width-5 plane) against a window sum
// the test takes itself, on both sides of the SWAR byte folder's exact
// range: a 32×32 window is 1,024 bytes, a 33×33 one 1,089. Each case pools
// one channel of random bytes and one of 127s, the largest sum.
func TestPoolFullWidthMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{5, 32, 33, 40} {
		const c = 2
		h, w := 2*k+3, k
		img := make([]int8, c*h*w)
		for i := range img[:h*w] {
			img[i] = int8(rng.Intn(256) - 128)
		}
		for i := range img[h*w:] {
			img[h*w+i] = 127
		}
		outH := (h-k)/k + 1
		dst := make([]int8, c*outH)
		if oh, ow := poolInto(dst, img, c, h, w, k, k, h*w); oh != outH || ow != 1 {
			t.Fatalf("k=%d: pooled to %dx%d, want %dx1", k, oh, ow, outH)
		}
		area := k * k
		for ch := 0; ch < c; ch++ {
			for oi := 0; oi < outH; oi++ {
				sum := 0
				for _, v := range img[ch*h*w+oi*k*w:][:k*w] {
					sum += int(v)
				}
				want := (sum + area/2) / area
				if sum < 0 {
					want = -((-sum + area/2) / area)
				}
				if got := dst[ch*outH+oi]; int(got) != want {
					t.Fatalf("k=w=%d ch %d window %d: pooled %d, want %d (sum %d)", k, ch, oi, got, want, sum)
				}
			}
		}
	}
}
