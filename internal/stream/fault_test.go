package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/speechcmd"
)

// panickyClassifier panics on every other call — a stand-in for a corrupt
// integer engine blowing up mid-inference.
type panickyClassifier struct {
	inner Classifier
	calls int
}

func (p *panickyClassifier) Classify(feat []float32) []float32 {
	p.calls++
	if p.calls%2 == 0 {
		panic("injected classifier fault")
	}
	return p.inner.Classify(feat)
}
func (p *panickyClassifier) NumClasses() int { return p.inner.NumClasses() }

// badShapeClassifier returns malformed posteriors: wrong length, then NaN.
type badShapeClassifier struct{ calls int }

func (b *badShapeClassifier) Classify([]float32) []float32 {
	b.calls++
	if b.calls%2 == 0 {
		return []float32{0.5} // wrong length
	}
	return []float32{float32(math.NaN()), 1}
}
func (b *badShapeClassifier) NumClasses() int { return 2 }

// TestDetectorSurvivesFaultWindows is the table-driven core of the fault
// harness: a confident classifier, a 3-second stream whose middle 500 ms is
// corrupted, and the assertions that Push never panics, the fault is counted,
// and detection still fires after the fault window.
func TestDetectorSurvivesFaultWindows(t *testing.T) {
	const rate = 1000
	mk := func() []float64 {
		w := make([]float64, 3*rate)
		for i := range w {
			w[i] = 0.1 * math.Sin(float64(i)*0.05)
		}
		return w
	}
	burstStart, burstLen := 1*rate, rate/2 // 500 ms at 1 s
	cases := []struct {
		name   string
		inject func(w []float64)
		check  func(t *testing.T, st Stats)
	}{
		{
			name:   "nan burst",
			inject: func(w []float64) { faultinject.NaNBurst(w, burstStart, burstLen) },
			check: func(t *testing.T, st Stats) {
				if st.Scrubbed != int64(burstLen) {
					t.Fatalf("scrubbed %d samples, want %d", st.Scrubbed, burstLen)
				}
			},
		},
		{
			name:   "all-zero gap",
			inject: func(w []float64) { faultinject.Dropout(w, burstStart, burstLen) },
			check:  func(t *testing.T, st Stats) {}, // zeros are legal input; surviving is the test
		},
		{
			name: "clipped window",
			inject: func(w []float64) {
				for i := burstStart; i < burstStart+burstLen; i++ {
					w[i] *= 100
				}
			},
			check: func(t *testing.T, st Stats) {
				if st.Clipped == 0 {
					t.Fatal("no samples counted as clipped")
				}
			},
		},
		{
			name:   "dc offset",
			inject: func(w []float64) { faultinject.DCOffset(w, burstStart, burstLen, 5) },
			check: func(t *testing.T, st Stats) {
				if st.Clipped == 0 {
					t.Fatal("dc-offset samples were not limited")
				}
			},
		},
		{
			name: "amplitude spikes",
			inject: func(w []float64) {
				faultinject.New(3).Spikes(w[burstStart:burstStart+burstLen], 50, 40)
			},
			check: func(t *testing.T, st Stats) {
				if st.Clipped == 0 {
					t.Fatal("spikes were not limited")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}
			cfg := DefaultConfig(rate)
			cfg.SmoothWin = 1
			cfg.RefractoryMs = 250
			d := NewDetector(cfg, fc, 0, 1)
			wave := mk()
			tc.inject(wave)
			var events []Event
			for lo := 0; lo < len(wave); lo += 100 { // chunked, like a capture driver
				hi := lo + 100
				if hi > len(wave) {
					hi = len(wave)
				}
				events = append(events, d.Push(wave[lo:hi])...)
			}
			tc.check(t, d.Stats())
			// The scripted keyword (the always-confident posterior) must be
			// re-detected after the fault window ends.
			fired := false
			for _, ev := range events {
				if ev.Sample > burstStart+burstLen {
					fired = true
				}
			}
			if !fired {
				t.Fatalf("no detection after the fault window (events %v, stats %+v)", events, d.Stats())
			}
		})
	}
}

func TestDetectorConcealGap(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.SmoothWin = 1
	d := NewDetector(cfg, fc, 0, 1)
	pushSeconds(d, 1.5, 1000)
	before := d.pos
	d.ConcealGap(500)
	if d.pos != before+500 {
		t.Fatalf("gap did not advance the stream position: %d -> %d", before, d.pos)
	}
	if st := d.Stats(); st.Concealed != 500 {
		t.Fatalf("concealed %d, want 500", st.Concealed)
	}
	if ev := pushSeconds(d, 1, 1000); len(ev) == 0 {
		t.Fatal("no detection after the concealed gap")
	}

	// The largest gap one TCP gap header can carry is 16 × MaxChunkSamples
	// = 2²⁰ samples. On a warm detector, on either pipeline, ConcealGap must
	// behave exactly like invalidating and pushing that many zeros from a
	// caller-owned slice, without allocating a slice of its size.
	const gap, maxAlloc = 1 << 20, 64 << 10
	zeros := make([]float64, gap)
	for _, incremental := range []bool{false, true} {
		cfg := DefaultConfig(16000)
		cfg.Incremental = incremental
		rng := rand.New(rand.NewSource(3))
		noise := func(seconds float64) []float64 {
			w := make([]float64, int(seconds*16000))
			for i := range w {
				w[i] = rng.Float64() - 0.5
			}
			return w
		}
		gapC, refC := &traceClassifier{}, &traceClassifier{}
		d, ref := NewDetector(cfg, gapC, 0, 1), NewDetector(cfg, refC, 0, 1)
		warm := noise(2)
		d.Push(warm)
		ref.Push(warm)

		var gapEv, refEv []Event
		gapAlloc := totalAlloc(func() { gapEv = d.ConcealGap(gap) })
		refAlloc := totalAlloc(func() {
			ref.invalidateHop()
			refEv = ref.Push(zeros)
			atomic.AddInt64(&ref.stats.Concealed, gap)
		})
		tag := fmt.Sprintf("incremental=%v", incremental)
		if gapAlloc >= maxAlloc {
			t.Fatalf("%s: ConcealGap(%d) allocated %d B (pushing the zeros from a caller's slice: %d B), want < %d",
				tag, gap, gapAlloc, refAlloc, maxAlloc)
		}
		if !reflect.DeepEqual(gapEv, refEv) {
			t.Fatalf("%s: gap events %v, want %v", tag, gapEv, refEv)
		}
		if got, want := d.Stats(), ref.Stats(); got != want || got.Concealed != gap {
			t.Fatalf("%s: stats after the gap %+v, want %+v", tag, got, want)
		}
		if got, want := d.HopCacheStats(), ref.HopCacheStats(); got != want {
			t.Fatalf("%s: hop cache stats %+v, want %+v", tag, got, want)
		}
		gapC.record, refC.record = true, true
		after := noise(2)
		if got, want := d.Push(after), ref.Push(after); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: events after the gap %v, want %v", tag, got, want)
		}
		if len(refC.log) == 0 || !reflect.DeepEqual(gapC.log, refC.log) || !reflect.DeepEqual(gapC.nNew, refC.nNew) {
			t.Fatalf("%s: hops after the gap diverge: posteriors %v / %v, new frames %v / %v",
				tag, gapC.log, refC.log, gapC.nNew, refC.nNew)
		}
	}
}

// totalAlloc reports the heap bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// traceClassifier is a hop classifier whose two posteriors depend on every
// feature. Once record is set it logs each hop's posteriors and new-frame
// count, so two detectors can be compared hop by hop; before that it
// allocates nothing.
type traceClassifier struct {
	out    [2]float32
	record bool
	log    [][2]float32
	nNew   []int
}

func (c *traceClassifier) NumClasses() int { return 2 }

func (c *traceClassifier) Classify(feat []float32) []float32 {
	var s float64
	for i, v := range feat {
		s += float64(v) * float64(i%7-3)
	}
	p := float32(1 / (1 + math.Exp(-s/float64(len(feat)))))
	c.out = [2]float32{1 - p, p}
	if c.record {
		c.log = append(c.log, c.out)
	}
	return c.out[:]
}

func (c *traceClassifier) ClassifyHop(feat []float32, nNew int) ([]float32, bool) {
	if c.record {
		c.nNew = append(c.nNew, nNew)
	}
	return c.Classify(feat), true
}

func (c *traceClassifier) InvalidateHop() {}

func TestDetectorSurvivesPanickingClassifier(t *testing.T) {
	fc := &panickyClassifier{inner: &fakeClassifier{probs: [][]float32{{0, 1}}, n: 2}}
	cfg := DefaultConfig(1000)
	cfg.SmoothWin = 1
	cfg.RefractoryMs = 250
	d := NewDetector(cfg, fc, 0, 1)
	ev := pushSeconds(d, 4, 1000)
	if len(ev) == 0 {
		t.Fatal("no detections despite half the hops succeeding")
	}
	if st := d.Stats(); st.BadPosteriors == 0 {
		t.Fatal("classifier panics were not counted")
	}
}

func TestDetectorRejectsMalformedPosteriors(t *testing.T) {
	d := NewDetector(DefaultConfig(1000), &badShapeClassifier{}, 0, 1)
	if ev := pushSeconds(d, 4, 1000); len(ev) != 0 {
		t.Fatalf("fired %v on malformed posteriors", ev)
	}
	if st := d.Stats(); st.BadPosteriors == 0 {
		t.Fatal("malformed posteriors were not counted")
	}
}

func TestWatchdogResetsStuckPosteriors(t *testing.T) {
	// Identical saturated posteriors for an ignored class: the watchdog must
	// notice the stuck ring and reset the smoothing history.
	fc := &fakeClassifier{probs: [][]float32{{1, 0}}, n: 2}
	cfg := DefaultConfig(1000)
	cfg.SmoothWin = 2
	cfg.IgnoreClass = 0
	cfg.WatchdogHops = 3
	d := NewDetector(cfg, fc, 0, 1)
	pushSeconds(d, 5, 1000)
	st := d.Stats()
	if st.WatchdogResets == 0 {
		t.Fatal("watchdog never reset a stuck posterior stream")
	}
	// Recovery: once posteriors move again, detection works normally.
	fc.probs = [][]float32{{0, 0.9}, {0.05, 0.95}}
	if ev := pushSeconds(d, 2, 1000); len(ev) == 0 {
		t.Fatal("no detection after the stream recovered")
	}
}

// End-to-end acceptance: a trained model survives a 500 ms NaN or dropout
// burst mid-stream without panicking and still fires on a keyword placed
// after the fault window.
func TestStreamingSurvivesFaultThenDetects(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cls, ds := e2eSetup(t)
	scCfg := ds.Config
	rate := scCfg.SampleRate
	for _, kind := range []string{"nan", "dropout"} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var wave []float64
			app := func(w []float64) { wave = append(wave, w...) }
			app(speechcmd.SynthesizeUtterance("", scCfg, rng)) // 0-1 s silence
			app(speechcmd.SynthesizeUtterance("", scCfg, rng)) // 1-2 s silence
			app(speechcmd.SynthesizeUtterance("", scCfg, rng)) // 2-3 s silence
			app(speechcmd.SynthesizeUtterance("yes", scCfg, rng))
			app(speechcmd.SynthesizeUtterance("", scCfg, rng))
			// 500 ms fault at 1.5 s, well before the keyword at 3 s.
			switch kind {
			case "nan":
				faultinject.NaNBurst(wave, rate+rate/2, rate/2)
			case "dropout":
				faultinject.Dropout(wave, rate+rate/2, rate/2)
			}
			dcfg := DefaultConfig(rate)
			dcfg.IgnoreClass = speechcmd.SilenceClass
			dcfg.IgnoreClass2 = speechcmd.UnknownClass
			dcfg.Threshold = 0.5
			det := NewDetector(dcfg, cls, ds.FeatMean, ds.FeatStd)
			events := det.Push(wave)
			yesIdx := 0 // "yes" in TargetWords order
			found := false
			for _, ev := range events {
				sec := float64(ev.Sample) / float64(rate)
				if ev.Class == yesIdx && sec > 3.0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("did not detect 'yes' after the %s fault window (events %v, stats %+v)",
					kind, events, det.Stats())
			}
			if kind == "nan" && det.Stats().Scrubbed != int64(rate/2) {
				t.Fatalf("scrubbed %d, want %d", det.Stats().Scrubbed, rate/2)
			}
		})
	}
}
