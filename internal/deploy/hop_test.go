package deploy

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// hopStream generates a stream of overlapping windows sharing storage: one
// long feature strip where window i is strip[i·hop·coeffs:][:frames·coeffs],
// so consecutive windows satisfy the InferHop caller contract by
// construction.
type hopStream struct {
	strip          []float32
	frames, coeffs int
	hop            int
}

func newHopStream(rng *rand.Rand, frames, coeffs, hop, hops int) *hopStream {
	strip := make([]float32, (frames+hop*hops)*coeffs)
	for i := range strip {
		strip[i] = float32(rng.NormFloat64())
	}
	return &hopStream{strip: strip, frames: frames, coeffs: coeffs, hop: hop}
}

func (s *hopStream) window(i int) []float32 {
	return s.strip[i*s.hop*s.coeffs:][:s.frames*s.coeffs]
}

func (s *hopStream) hops() int {
	return (len(s.strip)/s.coeffs - s.frames) / s.hop
}

// TestInferHopMatchesFullStream is the acceptance property: over 1000+
// consecutive hops of a paper-shape stream at the default 250 ms hop
// (12 stride-aligned frames), InferHop must be bit-exact with a
// full-window Infer on every window, under both policies, with and without
// a telemetry observer attached.
func TestInferHopMatchesFullStream(t *testing.T) {
	const hop = 12
	hops := 1000
	if testing.Short() {
		hops = 200
	}
	for _, withObs := range []bool{false, true} {
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			e := SyntheticEngine(21, 0.35)
			e.Policy = pol
			if withObs {
				e.EnableTelemetry(telemetry.NewRegistry(), nil)
			}
			rng := rand.New(rand.NewSource(77))
			s := newHopStream(rng, int(e.Frames), int(e.Coeffs), hop, hops)
			hs := e.NewHopState()
			for i := 0; i < hops; i++ {
				x := s.window(i)
				nNew := hop
				if i == 0 {
					nNew = int(e.Frames) // cold start
				}
				gotSc, gotCls := e.InferHop(hs, x, nNew)
				wantSc, wantCls := e.Infer(x)
				if gotCls != wantCls {
					t.Fatalf("pol %v obs %v hop %d: class %d vs full %d", pol, withObs, i, gotCls, wantCls)
				}
				for j := range wantSc {
					if gotSc[j] != wantSc[j] {
						t.Fatalf("pol %v obs %v hop %d: score[%d]=%d vs full %d",
							pol, withObs, i, j, gotSc[j], wantSc[j])
					}
				}
			}
			if st := hs.Stats(); st.Hops != int64(hops) || st.FullRecomputes != 1 {
				t.Fatalf("pol %v obs %v: stats %+v, want %d hops / 1 full", pol, withObs, st, hops)
			}
			if withObs {
				if got := e.obs.HopInfers.Value(); got != int64(hops) {
					t.Fatalf("pol %v: engine.hop.infers=%d want %d", pol, got, hops)
				}
				if e.obs.HopColumns.Value() <= 0 {
					t.Fatalf("pol %v: engine.hop.columns_computed not counted", pol)
				}
			}
			hs.Release()
		}
	}
}

// liveHopEngine reshapes a randSmallEngine for the hop property: every
// depthwise layer gets r hidden units per channel, and every conv
// multiplier is redrawn from [0.1, 0.95). randSmallEngine's small
// multipliers collapse most activations to the bias, where a stale cached
// position equals a recomputed one and a band error cannot show.
func liveHopEngine(rng *rand.Rand, e *Engine, r int) {
	for _, q := range e.Convs {
		hid := len(q.HidMul)
		if q.Kind == kindDepthwise {
			c := int(q.Cin)
			q.R = int32(r)
			q.WbPacked = randTernaryPacked(rng, c*r*int(q.KH*q.KW), 0.5)
			q.WcPacked = randTernaryPacked(rng, c*r, 0.6)
			hid = c * r
		}
		q.HidMul, q.OutMul = liveMults(rng, hid), liveMults(rng, len(q.OutMul))
	}
}

// TestInferHopProperty sweeps random engine shapes, random (including
// ragged and oversized) hop sizes, cold restarts, invalidations and policy
// flips: every hop must stay bit-exact with the full-window path at the
// engine's then-current policy, in its scores and in every cached layer
// image (the scores alone can mask a wrong position). The first engines
// keep randSmallEngine's
// multipliers; the rest get live ones (liveHopEngine) with one hidden unit
// per depthwise channel, so their bands run the fused column kernels over
// the bands' 8-column groups, or with two, which those kernels cannot take,
// so each hop recomputes the depthwise planes whole.
func TestInferHopProperty(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(9100 + seed))
		e := randSmallEngine(rng)
		if seed >= 12 {
			liveHopEngine(rng, e, 1+int(seed%2))
		}
		e.Calib = e.calibTable()
		if err := e.Validate(); err != nil {
			t.Fatalf("seed %d: random engine invalid: %v", seed, err)
		}
		frames, coeffs := int(e.Frames), int(e.Coeffs)
		hs := e.NewHopState()
		ref := e.NewHopState() // recomputes every window in full
		win := make([]float32, frames*coeffs)
		for i := range win {
			win[i] = float32(rng.NormFloat64())
		}
		for hop := 0; hop < 60; hop++ {
			switch rng.Intn(10) {
			case 0:
				hs.Invalidate()
			case 1:
				if e.Policy == PolicyMixed {
					e.Policy = PolicyInt8
				} else {
					e.Policy = PolicyMixed
				}
			}
			// Shift the window by a random number of frames (0 = repeat, up
			// to frames+2 = complete replacement, possibly overshooting).
			nNew := rng.Intn(frames + 3)
			shift := nNew
			if shift > frames {
				shift = frames
			}
			copy(win, win[shift*coeffs:])
			tail := win[(frames-shift)*coeffs:]
			for i := range tail {
				tail[i] = float32(rng.NormFloat64())
			}
			gotSc, gotCls := e.InferHop(hs, win, nNew)
			wantSc, wantCls := e.Infer(win)
			if gotCls != wantCls {
				t.Fatalf("seed %d hop %d (nNew=%d pol=%v): class %d vs full %d",
					seed, hop, nNew, e.Policy, gotCls, wantCls)
			}
			for j := range wantSc {
				if gotSc[j] != wantSc[j] {
					t.Fatalf("seed %d hop %d (nNew=%d pol=%v): score[%d]=%d vs full %d",
						seed, hop, nNew, e.Policy, j, gotSc[j], wantSc[j])
				}
			}
			e.InferHop(ref, win, frames)
			for l, g := range hs.geom {
				for j, v := range ref.imgs[l] {
					if j%g.outStride < g.oh*g.ow && hs.imgs[l][j] != v {
						t.Fatalf("seed %d hop %d (nNew=%d pol=%v): layer %d image[%d]=%d vs full %d",
							seed, hop, nNew, e.Policy, l, j, hs.imgs[l][j], v)
					}
				}
			}
		}
		hs.Release()
		ref.Release()
	}
}

// TestInferHopBandColumns pins the hop's recompute count on the paper
// shape: a warm 12-frame hop recomputes 55 + 65 + 65 + 75 + 75 = 335 output
// positions over conv1, dw1, pw2, dw3 and pw4 — each depthwise layer only
// its bands, counted in positions, not in the 8-column groups the fused
// kernels run.
func TestInferHopBandColumns(t *testing.T) {
	const hop, want = 12, 335
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e := SyntheticEngine(9, 0.35)
		e.Policy = pol
		rng := rand.New(rand.NewSource(8))
		s := newHopStream(rng, int(e.Frames), int(e.Coeffs), hop, 6)
		hs := e.NewHopState()
		e.InferHop(hs, s.window(0), int(e.Frames))
		for i := 1; i < s.hops(); i++ {
			before := hs.Stats().ColumnsComputed
			e.InferHop(hs, s.window(i), hop)
			if got := hs.Stats().ColumnsComputed - before; got != want {
				t.Fatalf("pol %v hop %d: %d positions recomputed, want %d", pol, i, got, want)
			}
		}
		hs.Release()
	}
}

// TestInferHopZeroAllocs pins the steady-state hop path at zero allocations
// under both policies.
func TestInferHopZeroAllocs(t *testing.T) {
	const hop = 12
	for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
		e := SyntheticEngine(9, 0.35)
		e.Policy = pol
		rng := rand.New(rand.NewSource(5))
		s := newHopStream(rng, int(e.Frames), int(e.Coeffs), hop, 64)
		hs := e.NewHopState()
		e.InferHop(hs, s.window(0), int(e.Frames)) // warm up: cold full recompute
		i := 1
		allocs := testing.AllocsPerRun(40, func() {
			if i >= s.hops() {
				i = 1 // restart mid-strip; window 1 vs window N is a plain miss
				e.InferHop(hs, s.window(0), int(e.Frames))
			}
			e.InferHop(hs, s.window(i), hop)
			i++
		})
		if allocs != 0 {
			t.Fatalf("pol %v: steady-state hop allocates %.1f/op, want 0", pol, allocs)
		}
		hs.Release()
	}
}

// checkHopArena fails unless hs's arena is sized for pol and holds only
// the scratch the hop path reads: no ping-pong images and no im2col, since
// the state keeps its own cached images and band im2col.
func checkHopArena(t *testing.T, hs *HopState, pol Policy) {
	t.Helper()
	a := hs.a
	if a.pol != pol || (len(a.hidden8) > 0) != (pol == PolicyInt8) {
		t.Fatalf("hop arena sized for %v (int8 hidden planes %d), engine runs %v", a.pol, len(a.hidden8), pol)
	}
	if a.imgA != nil || a.imgB != nil || a.cols != nil {
		t.Fatalf("pol %v: hop arena holds frame scratch: imgA %d, imgB %d, cols %d bytes",
			pol, len(a.imgA), len(a.imgB), len(a.cols))
	}
}

// TestInferHopStateReuse exercises the engine-level hop-state pool: a
// released state must come back invalidated and survive a policy change
// between checkouts, which rebuilds its arena; before and after, the arena
// holds only the scratch the hop path reads.
func TestInferHopStateReuse(t *testing.T) {
	e := SyntheticEngine(9, 0.35)
	rng := rand.New(rand.NewSource(6))
	s := newHopStream(rng, int(e.Frames), int(e.Coeffs), 12, 8)
	hs := e.NewHopState()
	e.InferHop(hs, s.window(0), int(e.Frames))
	checkHopArena(t, hs, PolicyMixed)
	hs.Release()

	e.Policy = PolicyInt8
	hs2 := e.NewHopState()
	if hs2.valid {
		t.Fatal("pooled hop state came back with a valid cache")
	}
	got, _ := e.InferHop(hs2, s.window(1), 12)
	want, _ := e.Infer(s.window(1))
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("pooled state after policy flip: score[%d]=%d want %d", j, got[j], want[j])
		}
	}
	if !hs2.LastFull() {
		t.Fatal("first hop on a pooled state must be a full recompute")
	}
	checkHopArena(t, hs2, PolicyInt8)
	hs2.Release()
}

// TestInferHopConcurrent runs several hop states on one shared engine while
// another goroutine hammers InferBatch — the serving contract. Run with
// -race in ci.sh.
func TestInferHopConcurrent(t *testing.T) {
	e := SyntheticEngine(9, 0.35)
	const sessions = 4
	var wg sync.WaitGroup
	errs := make(chan string, sessions+1)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			str := newHopStream(rng, int(e.Frames), int(e.Coeffs), 12, 40)
			hs := e.NewHopState()
			defer hs.Release()
			ref := e.NewHopState() // full-window oracle without the resident arena
			defer ref.Release()
			for i := 0; i < str.hops(); i++ {
				nNew := 12
				if i == 0 {
					nNew = int(e.Frames)
				}
				got, _ := e.InferHop(hs, str.window(i), nNew)
				want, _ := e.InferHop(ref, str.window(i), int(e.Frames))
				for j := range want {
					if got[j] != want[j] {
						errs <- "hop/full divergence under concurrency"
						return
					}
				}
			}
		}(int64(s))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(200))
		xs := make([][]float32, 8)
		for i := range xs {
			xs[i] = make([]float32, int(e.Frames)*int(e.Coeffs))
			for j := range xs[i] {
				xs[i][j] = float32(rng.NormFloat64())
			}
		}
		for k := 0; k < 20; k++ {
			for _, r := range e.InferBatch(xs) {
				if r.Err != nil {
					errs <- r.Err.Error()
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
