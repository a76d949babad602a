package deploy

import (
	"fmt"
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

// liveHopEngine gives every depthwise layer of a randSmallEngine two hidden
// units per channel, a shape the fused column kernels cannot take.
func liveHopEngine(rng *rand.Rand, e *Engine) {
	const r = 2
	for _, q := range e.Convs {
		if q.Kind == kindDepthwise {
			c := int(q.Cin)
			q.R = r
			q.WbPacked = randTernaryPacked(rng, c*r*int(q.KH*q.KW), 0.5)
			q.WcPacked = randTernaryPacked(rng, c*r, 0.6)
			q.HidMul = randMults(rng, c*r)
		}
	}
}

// TestInferHopProperty sweeps random engine shapes, random (including
// ragged and oversized) hop sizes, cold restarts and invalidations: every
// hop must stay bit-exact with the full-window path, in its scores and in
// every cached layer image (the scores alone can mask a wrong position).
// Each seed's stream runs under both policies, on one engine per policy
// (liveInt8 for PolicyInt8). Even seeds keep randSmallEngine's one hidden
// unit per depthwise channel, so their bands run the fused column kernels
// over the bands' 8-column groups; odd seeds get two (liveHopEngine), so
// each hop recomputes the depthwise planes whole.
func TestInferHopProperty(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		for _, pol := range []Policy{PolicyMixed, PolicyInt8} {
			// One rng per policy: both engines and both streams draw alike.
			rng := rand.New(rand.NewSource(9100 + seed))
			e := randSmallEngine(rng)
			if seed%2 == 1 {
				liveHopEngine(rng, e)
			}
			if pol == PolicyInt8 {
				liveInt8(e)
			}
			e.Policy = pol
			e.Calib = e.calibTable()
			if err := e.Validate(); err != nil {
				t.Fatalf("seed %d pol %v: random engine invalid: %v", seed, pol, err)
			}
			checkHopStream(t, rng, e, fmt.Sprintf("seed %d pol %v", seed, pol))
		}
	}
}

// checkHopStream drives 60 random hops, with random invalidations, through
// a hop state on e and checks each against the full-window path and each
// cached layer image against a state that recomputes every window in full.
func checkHopStream(t *testing.T, rng *rand.Rand, e *Engine, tag string) {
	t.Helper()
	frames, coeffs := int(e.Frames), int(e.Coeffs)
	hs := e.NewHopState()
	defer hs.Release()
	ref := e.NewHopState() // recomputes every window in full
	defer ref.Release()
	win := make([]float32, frames*coeffs)
	for i := range win {
		win[i] = float32(rng.NormFloat64())
	}
	for hop := 0; hop < 60; hop++ {
		if rng.Intn(10) == 0 {
			hs.Invalidate()
		}
		// Shift the window by a random number of frames (0 = repeat, up to
		// frames+2 = complete replacement, possibly overshooting).
		nNew := rng.Intn(frames + 3)
		shift := min(nNew, frames)
		copy(win, win[shift*coeffs:])
		tail := win[(frames-shift)*coeffs:]
		for i := range tail {
			tail[i] = float32(rng.NormFloat64())
		}
		gotSc, gotCls := e.InferHop(hs, win, nNew)
		wantSc, wantCls := e.Infer(win)
		if gotCls != wantCls {
			t.Fatalf("%s hop %d (nNew=%d): class %d vs full %d", tag, hop, nNew, gotCls, wantCls)
		}
		for j := range wantSc {
			if gotSc[j] != wantSc[j] {
				t.Fatalf("%s hop %d (nNew=%d): score[%d]=%d vs full %d", tag, hop, nNew, j, gotSc[j], wantSc[j])
			}
		}
		e.InferHop(ref, win, frames)
		for l, g := range e.geom {
			for j, v := range ref.a.imgs[l] {
				if j%g.outStride < g.oh*g.ow && hs.a.imgs[l][j] != v {
					t.Fatalf("%s hop %d (nNew=%d): layer %d image[%d]=%d vs full %d",
						tag, hop, nNew, l, j, hs.a.imgs[l][j], v)
				}
			}
		}
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

// checkHopArena fails unless hs's arena gives the input and every conv an
// image buffer of its own — the hop cache — where a frame arena lays them
// over two ping-pong planes.
func checkHopArena(t *testing.T, hs *HopState) {
	t.Helper()
	a := hs.a
	imgs := append([][]int8{a.in}, a.imgs...)
	if len(a.planes) != len(imgs) || len(a.row) == 0 {
		t.Fatalf("%d image buffers for %d images, scatter row %d bytes", len(a.planes), len(imgs), len(a.row))
	}
	for l, img := range imgs {
		if p := a.planes[l]; len(img) != len(p) || &img[0] != &p[0] {
			t.Fatalf("hop arena image %d is not its own buffer", l)
		}
	}
}

// TestInferHopStateReuse exercises the engine-level hop-state pool: a
// released state must come back invalidated, so its first hop recomputes
// the window in full; before and after, the arena gives every conv its own
// cached image.
func TestInferHopStateReuse(t *testing.T) {
	e := SyntheticEngine(9, 0.35)
	rng := rand.New(rand.NewSource(6))
	s := newHopStream(rng, int(e.Frames), int(e.Coeffs), 12, 8)
	hs := e.NewHopState()
	e.InferHop(hs, s.window(0), int(e.Frames))
	checkHopArena(t, hs)
	hs.Release()

	hs2 := e.NewHopState()
	if hs2.valid {
		t.Fatal("pooled hop state came back with a valid cache")
	}
	got, _ := e.InferHop(hs2, s.window(1), 12)
	want, _ := e.Infer(s.window(1))
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("pooled state: score[%d]=%d want %d", j, got[j], want[j])
		}
	}
	if !hs2.LastFull() {
		t.Fatal("first hop on a pooled state must be a full recompute")
	}
	checkHopArena(t, hs2)
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
