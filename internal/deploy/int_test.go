package deploy

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// TestGatherWordPackedMatchesScalar pins the SWAR plane gather and the
// scalar gather against the dense-row oracle across random plane counts
// (including >256 to exercise the chunk fold over several mask words),
// widths (including non-multiples of 8 for the tail path) and sign
// assignments.
func TestGatherWordPackedMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		nOut := 1 + rng.Intn(200)
		nPlanes := 1 + rng.Intn(40)
		if seed%7 == 0 {
			nPlanes = 200 + rng.Intn(400) // cross the 256-plane chunk boundary
		}
		planes := make([]int8, nPlanes*nOut)
		for i := range planes {
			planes[i] = int8(rng.Intn(256) - 128)
		}
		w := make([]int8, nPlanes)
		for p := range w {
			w[p] = int8(rng.Intn(3) - 1)
		}
		sp := compileRows(w, 1, nPlanes)
		plus, minus := sp.row(0)
		want := oracleGather(planes, w, nOut)
		scalar := make([]int32, nOut)
		gather(scalar, planes, plus, minus, nOut)
		got := make([]int32, nOut)
		gatherPlanesI8W(got, i8Bytes(planes), plus, minus, nOut)
		for j := range want {
			if got[j] != want[j] || scalar[j] != want[j] {
				t.Fatalf("seed %d (planes=%d nOut=%d nnz=%d): word[%d]=%d scalar=%d, oracle %d",
					seed, nPlanes, nOut, sp.nnz, j, got[j], scalar[j], want[j])
			}
		}
	}
}

// TestInferIntMatchesNaiveRandomized is the end-to-end bit-exactness
// property: the word-packed path must agree with the int64 scalar oracle on
// whole random engines under both activation policies. The int8 pass runs
// each engine rescaled by liveInt8, so its scores vary too.
func TestInferIntMatchesNaiveRandomized(t *testing.T) {
	const engines = 20
	varying := map[Policy]int{}
	for seed := int64(0); seed < engines; seed++ {
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			rng := rand.New(rand.NewSource(2000 + seed))
			e := randSmallEngine(rng)
			if pol == PolicyInt8 {
				liveInt8(e)
			}
			e.Policy = pol
			e.Calib = e.calibTable()
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d pol %v: random engine invalid: %v", seed, pol, err)
			}
			var spread scoreSpread
			for trial := 0; trial < 3; trial++ {
				x := make([]float32, e.Frames*e.Coeffs)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				wantSc, wantCls := e.NaiveInt(x)
				spread.add(wantSc)
				gotSc, gotCls := e.Infer(x)
				if gotCls != wantCls {
					t.Fatalf("seed %d pol %v trial %d: class %d vs oracle %d", seed, pol, trial, gotCls, wantCls)
				}
				for j := range wantSc {
					if gotSc[j] != wantSc[j] {
						t.Fatalf("seed %d pol %v trial %d: score[%d]=%d vs oracle %d",
							seed, pol, trial, j, gotSc[j], wantSc[j])
					}
				}
			}
			if spread.varies {
				varying[pol]++
			}
		}
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		checkVarying(t, pol, varying[pol], engines)
	}
}

// TestInferIntMatchesFloatSimulation pins the integer path byte-exact
// against the FakeQuant-style float32 simulation on the paper-scale
// synthetic shape — 1000 random frames per policy (100 under -short). This
// is the acceptance property: same scores, same argmax, every frame.
func TestInferIntMatchesFloatSimulation(t *testing.T) {
	frames := 1000
	if testing.Short() {
		frames = 100
	}
	e := SyntheticEngine(21, 0.35)
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e.Policy = pol
		rng := rand.New(rand.NewSource(22))
		x := make([]float32, e.Frames*e.Coeffs)
		for trial := 0; trial < frames; trial++ {
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			wantSc, wantCls := e.InferFloat(x)
			gotSc, gotCls := e.Infer(x)
			if gotCls != wantCls {
				t.Fatalf("pol %v frame %d: class %d vs float sim %d", pol, trial, gotCls, wantCls)
			}
			for j := range wantSc {
				if gotSc[j] != wantSc[j] {
					t.Fatalf("pol %v frame %d: score[%d]=%d vs float sim %d",
						pol, trial, j, gotSc[j], wantSc[j])
				}
			}
		}
	}
}

// TestFloatSimulationRandomized extends the float-vs-int agreement to random
// small shapes, where padding tails, odd widths and empty rows differ from
// the synthetic shape. The int8 pass runs each engine rescaled by liveInt8,
// so its scores vary too.
func TestFloatSimulationRandomized(t *testing.T) {
	const engines = 15
	varying := map[Policy]int{}
	for seed := int64(0); seed < engines; seed++ {
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			rng := rand.New(rand.NewSource(3000 + seed))
			e := randSmallEngine(rng)
			if pol == PolicyInt8 {
				liveInt8(e)
			}
			e.Policy = pol
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d pol %v: random engine invalid: %v", seed, pol, err)
			}
			var spread scoreSpread
			for trial := 0; trial < 3; trial++ {
				x := make([]float32, e.Frames*e.Coeffs)
				for i := range x {
					x[i] = float32(rng.NormFloat64())
				}
				wantSc, _ := e.InferFloat(x)
				spread.add(wantSc)
				gotSc, _ := e.Infer(x)
				for j := range wantSc {
					if gotSc[j] != wantSc[j] {
						t.Fatalf("seed %d pol %v trial %d: score[%d]=%d vs float sim %d",
							seed, pol, trial, j, gotSc[j], wantSc[j])
					}
				}
			}
			if spread.varies {
				varying[pol]++
			}
		}
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		checkVarying(t, pol, varying[pol], engines)
	}
}

// TestInferIntZeroAllocs gates the headline perf property under both
// policies: steady-state Infer and InferSafe allocate nothing.
func TestInferIntZeroAllocs(t *testing.T) {
	e := SyntheticEngine(23, 0.35)
	x := make([]float32, e.Frames*e.Coeffs)
	rng := rand.New(rand.NewSource(24))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e.Policy = pol
		e.Infer(x) // warm up: kernel compile + arena rebuild for the policy
		if allocs := testing.AllocsPerRun(50, func() { e.Infer(x) }); allocs != 0 {
			t.Fatalf("pol %v: Infer allocates %.1f objects/op in steady state, want 0", pol, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { e.InferSafe(x) }); allocs != 0 {
			t.Fatalf("pol %v: InferSafe allocates %.1f objects/op in steady state, want 0", pol, allocs)
		}
	}
}

// TestConcurrentBatchAcrossPolicies runs InferBatch concurrently on three
// engines — mixed-policy, fully-8-bit, and a telemetry-attached mixed
// engine — in one process (the ci.sh -race pass covers this), checking every
// frame against the per-engine NaiveInt oracle.
func TestConcurrentBatchAcrossPolicies(t *testing.T) {
	mk := func(pol Policy, observed bool) *Engine {
		e := SyntheticEngine(31, 0.3)
		e.Policy = pol
		if observed {
			e.EnableTelemetry(telemetry.NewRegistry(), nil)
		}
		return e
	}
	engines := []*Engine{mk(PolicyMixed, false), mk(PolicyInt8, false), mk(PolicyMixed, true)}
	rng := rand.New(rand.NewSource(32))
	const n = 8
	xs := make([][]float32, n)
	for i := range xs {
		x := make([]float32, engines[0].Frames*engines[0].Coeffs)
		for j := range x {
			x[j] = float32(rng.NormFloat64())
		}
		xs[i] = x
	}
	type expect struct {
		sc  []int32
		cls int
	}
	want := make([][]expect, len(engines))
	for ei, e := range engines {
		want[ei] = make([]expect, n)
		for i, x := range xs {
			sc, cls := e.NaiveInt(x)
			want[ei][i] = expect{append([]int32(nil), sc...), cls}
		}
	}
	done := make(chan error, 2*len(engines))
	for ei, e := range engines {
		for g := 0; g < 2; g++ {
			e, w := e, want[ei]
			go func() {
				for round := 0; round < 4; round++ {
					for i, r := range e.InferBatch(xs) {
						if r.Err != nil {
							done <- r.Err
							return
						}
						if r.Class != w[i].cls || r.Scores[0] != w[i].sc[0] {
							done <- errors.New("batch result diverged from serial oracle")
							return
						}
					}
				}
				done <- nil
			}()
		}
	}
	for g := 0; g < 2*len(engines); g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriteToVersionMatrix round-trips one engine through every supported
// format version and checks what each version preserves: v3 carries the
// policy and calibration table, v1/v2 drop them (readers default to
// PolicyMixed, nil Calib), and all three reproduce bit-identical inference.
func TestWriteToVersionMatrix(t *testing.T) {
	e := SyntheticEngine(41, 0.3)
	e.Policy = PolicyInt8
	rng := rand.New(rand.NewSource(42))
	x := make([]float32, e.Frames*e.Coeffs)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	wantSc, wantCls := e.Infer(x)
	for v := int32(1); v <= 3; v++ {
		var buf bytes.Buffer
		if _, err := e.WriteToVersion(&buf, v); err != nil {
			t.Fatalf("v%d: write: %v", v, err)
		}
		got, err := ReadEngine(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("v%d: read back: %v", v, err)
		}
		switch v {
		case 3:
			if got.Policy != PolicyInt8 {
				t.Fatalf("v3 dropped the policy: got %v", got.Policy)
			}
			if len(got.Calib) != len(e.Calib) {
				t.Fatalf("v3 calib table: %d entries, want %d", len(got.Calib), len(e.Calib))
			}
			for i, c := range got.Calib {
				if c != e.Calib[i] {
					t.Fatalf("v3 calib[%d] = %+v, want %+v", i, c, e.Calib[i])
				}
			}
		default:
			if got.Policy != PolicyMixed || got.Calib != nil {
				t.Fatalf("v%d reader must default to mixed policy and nil calib, got %v / %d entries",
					v, got.Policy, len(got.Calib))
			}
			got.Policy = PolicyInt8 // run the comparison at the original policy
		}
		sc, cls := got.Infer(x)
		if cls != wantCls {
			t.Fatalf("v%d: class %d, want %d", v, cls, wantCls)
		}
		for j := range wantSc {
			if sc[j] != wantSc[j] {
				t.Fatalf("v%d: score[%d]=%d, want %d", v, j, sc[j], wantSc[j])
			}
		}
	}
	var buf bytes.Buffer
	if _, err := e.WriteToVersion(&buf, 0); err == nil {
		t.Fatal("WriteToVersion(0) must be rejected")
	}
	if _, err := e.WriteToVersion(&buf, 4); err == nil {
		t.Fatal("WriteToVersion(4) must be rejected")
	}
}

// TestValidateRejectsCorruptCalib: every malformed policy/calibration shape
// a hostile v3 artifact could carry must fail Validate with ErrCorrupt.
func TestValidateRejectsCorruptCalib(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(e *Engine)
	}{
		{"bad policy", func(e *Engine) { e.Policy = Policy(7) }},
		{"empty site", func(e *Engine) { e.Calib[0].Site = "" }},
		{"oversized site", func(e *Engine) {
			e.Calib[0].Site = string(make([]byte, maxCalibSite+1))
		}},
		{"bad bits", func(e *Engine) { e.Calib[0].Bits = 12 }},
		{"NaN scale", func(e *Engine) { e.Calib[0].Scale = float32(math.NaN()) }},
		{"negative scale", func(e *Engine) { e.Calib[0].Scale = -1 }},
		{"infinite scale", func(e *Engine) { e.Calib[0].Scale = float32(math.Inf(1)) }},
		{"oversized table", func(e *Engine) {
			e.Calib = make([]CalibEntry, maxCalibEntries+1)
			for i := range e.Calib {
				e.Calib[i] = CalibEntry{Site: "x", Bits: 8, Scale: 1}
			}
		}},
	}
	for _, tc := range cases {
		e := SyntheticEngine(51, 0.3)
		tc.mutate(e)
		if err := e.Validate(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Validate() = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestPolicyFlipRebuildsArena: switching policy between inferences must
// transparently rebuild the resident arena and keep results oracle-exact.
func TestPolicyFlipRebuildsArena(t *testing.T) {
	e := SyntheticEngine(61, 0.3)
	x := make([]float32, e.Frames*e.Coeffs)
	rng := rand.New(rand.NewSource(62))
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for round := 0; round < 4; round++ {
		pol := Policy(round % 2)
		e.Policy = pol
		wantSc, wantCls := e.NaiveInt(x)
		gotSc, gotCls := e.Infer(x)
		if e.arena.pol != pol {
			t.Fatalf("round %d: arena built for %v, engine at %v", round, e.arena.pol, pol)
		}
		if gotCls != wantCls {
			t.Fatalf("round %d pol %v: class %d vs oracle %d", round, pol, gotCls, wantCls)
		}
		for j := range wantSc {
			if gotSc[j] != wantSc[j] {
				t.Fatalf("round %d pol %v: score[%d] diverged", round, pol, j)
			}
		}
	}
}

// TestScratchBytesPolicyDelta: the fully-8-bit arena must be strictly
// smaller than the mixed one (the hidden planes halve), and both must
// report a stable, positive footprint.
func TestScratchBytesPolicyDelta(t *testing.T) {
	e := SyntheticEngine(71, 0.35)
	e.Policy = PolicyMixed
	mixed := e.ScratchBytes()
	e.Policy = PolicyInt8
	int8b := e.ScratchBytes()
	if mixed <= 0 || int8b <= 0 {
		t.Fatalf("non-positive scratch: mixed=%d int8=%d", mixed, int8b)
	}
	if int8b >= mixed {
		t.Fatalf("PolicyInt8 scratch %d not smaller than mixed %d", int8b, mixed)
	}
	if again := e.ScratchBytes(); again != int8b {
		t.Fatalf("ScratchBytes unstable: %d then %d", int8b, again)
	}
}

// TestMeasuredDensity sanity-checks the realised-density probe: a dense
// request yields density 1, and the default 0.35 request lands nearby.
func TestMeasuredDensity(t *testing.T) {
	if d := SyntheticEngine(1, 1.0).MeasuredDensity(); d != 1 {
		t.Fatalf("density-1 engine measures %v", d)
	}
	if d := SyntheticEngine(1, 0.35).MeasuredDensity(); d < 0.25 || d > 0.45 {
		t.Fatalf("density-0.35 engine measures %v, outside [0.25,0.45]", d)
	}
}

// TestOracleConcurrentWithCompile runs the scalar oracle and the density
// probe on a fresh, uncompiled engine while another goroutine's InferBatch
// compiles its kernels. Both unpack their own weight copies, so under -race
// neither may touch state the compile writes, and the oracle must still
// agree with the compiled path afterwards.
func TestOracleConcurrentWithCompile(t *testing.T) {
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e := SyntheticEngine(5, 0.35)
		e.Policy = pol
		rng := rand.New(rand.NewSource(6))
		xs := make([][]float32, 9)
		for f := range xs {
			xs[f] = make([]float32, e.Frames*e.Coeffs)
			for i := range xs[f] {
				xs[f][i] = float32(rng.NormFloat64())
			}
		}
		done := make(chan []BatchResult)
		go func() { done <- e.InferBatch(xs) }()
		wantSc, wantCls := e.NaiveInt(xs[0])
		d := e.MeasuredDensity()
		got := <-done
		if d < 0.25 || d > 0.45 {
			t.Fatalf("pol %v: density %v measured during compile, outside [0.25,0.45]", pol, d)
		}
		if got[0].Err != nil || got[0].Class != wantCls {
			t.Fatalf("pol %v: batch class %d (err %v), oracle %d", pol, got[0].Class, got[0].Err, wantCls)
		}
		for j := range wantSc {
			if got[0].Scores[j] != wantSc[j] {
				t.Fatalf("pol %v: score[%d]=%d, oracle %d", pol, j, got[0].Scores[j], wantSc[j])
			}
		}
	}
}
