package dsp

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRealPowerSpectrumMatchesNaiveDFT pins the real-input transform (an
// N/2-point complex FFT over even/odd-packed samples plus the split pass)
// against the O(N²) DFT of the zero-padded frame, for every power of two up
// to 1024 and for frames of full, odd and shorter lengths.
func TestRealPowerSpectrumMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 1024; n <<= 1 {
		for _, fl := range []int{n, n - 1, n/2 + 1, n * 5 / 8, 1, 0} {
			if fl < 0 {
				continue
			}
			frame := make([]float64, fl)
			x := make([]complex128, n)
			for i := range frame {
				frame[i] = rng.NormFloat64()
				x[i] = complex(frame[i], 0)
			}
			got := PowerSpectrum(frame, n)
			want := naiveDFT(x)
			if len(got) != n/2+1 {
				t.Fatalf("n=%d: %d bins, want %d", n, len(got), n/2+1)
			}
			peak := 1e-300
			for k := range got {
				peak = math.Max(peak, real(want[k])*real(want[k])+imag(want[k])*imag(want[k]))
			}
			for k, g := range got {
				w := real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
				if math.Abs(g-w) > 1e-9*peak {
					t.Fatalf("n=%d frame %d bin %d: power %v, DFT %v", n, fl, k, g, w)
				}
			}
		}
	}
}

// TestSparseMelMatchesDense pins the sparse mel sums bit for bit against
// the dense MelFilterbank loop that tests every weight for zero, on real
// frame spectra at the three sample rates the repository runs.
func TestSparseMelMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, rate := range []int{4000, 8000, 16000} {
		cfg := DefaultMFCCConfig(rate)
		k := newKernel(cfg)
		fb := MelFilterbank(cfg, k.t.fftSize)
		x := make([]float64, cfg.FrameLen())
		for trial := 0; trial < 20; trial++ {
			for i := range x {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(trial%5-2))
			}
			k.windowFrame(x, nil)
			k.spectrum()
			k.melSums()
			for b, row := range fb {
				var e float64
				for j, w := range row {
					if w != 0 {
						e += w * k.spec[j]
					}
				}
				if math.Float64bits(e) != math.Float64bits(k.mel[b]) {
					t.Fatalf("rate %d band %d: sparse %v, dense %v", rate, b, k.mel[b], e)
				}
			}
		}
	}
}

// TestMFCCComputeAllocs pins batch featurisation at the returned tensor:
// the per-frame pipeline runs in the extractor's own scratch.
func TestMFCCComputeAllocs(t *testing.T) {
	for _, rate := range []int{16000, 4000} {
		m := NewMFCC(DefaultMFCCConfig(rate))
		for _, secs := range []int{1, 2} {
			wave := make([]float64, secs*rate)
			for i := range wave {
				wave[i] = math.Sin(float64(i))
			}
			if allocs := testing.AllocsPerRun(10, func() { m.Compute(wave) }); allocs > 2 {
				t.Fatalf("rate %d, %d s: Compute allocates %.1f/op, want ≤ 2", rate, secs, allocs)
			}
		}
	}
}

// TestComputeRingMatchesCompute pins in-place ring featurisation against
// Compute over the unrolled signal, bit for bit, at ring rotations on and
// off the stride grid — including ones where a frame wraps at its first or
// last sample — and at zero allocations. The third configuration's 25 ms
// frame is no multiple of its 10 ms stride.
func TestComputeRingMatchesCompute(t *testing.T) {
	odd := DefaultMFCCConfig(16000)
	odd.FrameMs, odd.StrideMs = 25, 10
	for _, cfg := range []MFCCConfig{DefaultMFCCConfig(16000), DefaultMFCCConfig(4000), odd} {
		m := NewMFCC(cfg)
		n := cfg.SampleRate
		rng := rand.New(rand.NewSource(43))
		ring := make([]float64, n)
		for i := range ring {
			ring[i] = rng.NormFloat64()
		}
		dst := make([]float32, cfg.NumFrames(n)*cfg.NumCoeffs)
		unrolled := make([]float64, n)
		fl := cfg.FrameLen()
		starts := []int{0, 1, cfg.Stride(), fl - 1, fl, fl + 1, n - fl, n - fl + 1, n / 2, n - 1}
		for i := 0; i < 20; i++ {
			starts = append(starts, rng.Intn(n))
		}
		for _, start := range starts {
			copy(unrolled, ring[start:])
			copy(unrolled[n-start:], ring[:start])
			want := m.Compute(unrolled)
			m.ComputeRing(dst, ring, start)
			for i, v := range want.Data {
				if dst[i] != v {
					t.Fatalf("rate %d frame %dms start %d: feature %d is %v in place, %v unrolled",
						cfg.SampleRate, cfg.FrameMs, start, i, dst[i], v)
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { m.ComputeRing(dst, ring, n/3) }); allocs != 0 {
			t.Fatalf("rate %d: ComputeRing allocates %.1f/op, want 0", cfg.SampleRate, allocs)
		}
	}
}

// concurrentRuns gives each run of TestConcurrentConstructionMatchesSerial
// a configuration no earlier run built, so its goroutines race to build the
// shared tables rather than find them ready.
var concurrentRuns atomic.Int64

// TestConcurrentConstructionMatchesSerial builds extractors and frontends
// from 8 goroutines at once over a fresh configuration — racing on the
// table memo — featurises on each, and checks every result against a serial
// run on privately built tables. Run under -race it also proves the shared
// tables are only read after publication.
func TestConcurrentConstructionMatchesSerial(t *testing.T) {
	const workers, winFrames = 8, 49
	run := concurrentRuns.Add(1)
	cfgs := []MFCCConfig{DefaultMFCCConfig(16000), DefaultMFCCConfig(4000)}
	waves := make([][]float64, len(cfgs))
	rng := rand.New(rand.NewSource(13))
	for i := range cfgs {
		cfgs[i].LowFreqHz += float64(run) / 64
		waves[i] = make([]float64, cfgs[i].SampleRate+cfgs[i].Stride()*3)
		for j := range waves[i] {
			waves[i][j] = 0.3 * rng.NormFloat64()
		}
	}
	featurise := func(c int, private bool) (batch []float32, stream []float32) {
		m := NewMFCC(cfgs[c])
		f := NewFrontend(cfgs[c], winFrames)
		if private {
			m.k.t = newTables(cfgs[c])
			f.k.t = m.k.t
		}
		f.Push(waves[c])
		stream = make([]float32, winFrames*cfgs[c].NumCoeffs)
		f.Window(stream)
		return m.Compute(waves[c]).Data, stream
	}

	batch := make([][]float32, workers)
	stream := make([][]float32, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			batch[g], stream[g] = featurise(g%len(cfgs), false)
		}(g)
	}
	wg.Wait()

	for c := range cfgs {
		wantBatch, wantStream := featurise(c, true)
		for g := c; g < workers; g += len(cfgs) {
			for i, v := range wantBatch {
				if batch[g][i] != v {
					t.Fatalf("goroutine %d batch feature %d: %v, serial %v", g, i, batch[g][i], v)
				}
			}
			for i, v := range wantStream {
				if stream[g][i] != v {
					t.Fatalf("goroutine %d stream feature %d: %v, serial %v", g, i, stream[g][i], v)
				}
			}
		}
	}
}
