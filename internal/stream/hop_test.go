package stream

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// recordingClassifier wraps a Classifier and keeps copies of every accepted
// posterior, so two detectors fed the same stream can be compared bitwise.
type recordingClassifier struct {
	inner Classifier
	log   [][]float32
}

func (r *recordingClassifier) Classify(f []float32) []float32 {
	p := r.inner.Classify(f)
	if p != nil {
		r.log = append(r.log, append([]float32(nil), p...))
	}
	return p
}

func (r *recordingClassifier) NumClasses() int { return r.inner.NumClasses() }

// recordingHopClassifier additionally exposes the incremental entry points,
// delegating to an EngineClassifier, and counts how many hops the engine
// reported as cache-reusing.
type recordingHopClassifier struct {
	recordingClassifier
	hop      *EngineClassifier
	incCalls int
}

func (r *recordingHopClassifier) ClassifyHop(f []float32, nNew int) ([]float32, bool) {
	p, inc := r.hop.ClassifyHop(f, nNew)
	if p != nil {
		r.log = append(r.log, append([]float32(nil), p...))
	}
	if inc {
		r.incCalls++
	}
	return p, inc
}

func (r *recordingHopClassifier) InvalidateHop() { r.hop.InvalidateHop() }

func compareLogs(t *testing.T, inc, full [][]float32, phase string) {
	t.Helper()
	if len(inc) != len(full) {
		t.Fatalf("%s: incremental classified %d hops, full %d", phase, len(inc), len(full))
	}
	for h := range inc {
		for i := range inc[h] {
			if inc[h][i] != full[h][i] {
				t.Fatalf("%s: hop %d class %d: incremental %v, full %v",
					phase, h, i, inc[h][i], full[h][i])
			}
		}
	}
}

// TestIncrementalGapResetParity is the discontinuity regression: an
// incremental detector (streaming frontend + engine hop cache) and a
// full-window detector share one engine and consume the same stream with
// interleaved gap concealments and resets. Posteriors must stay bitwise
// identical through every discontinuity — a cache carried across a gap or
// reset would diverge here. A monitoring goroutine polls Stats, Health and
// HopCacheStats throughout, so `go test -race` (ci.sh runs it) also pins the
// counter accesses.
func TestIncrementalGapResetParity(t *testing.T) {
	const rate = 2000
	e := deploy.SyntheticEngine(21, 0.35)

	incRec := &recordingHopClassifier{hop: NewEngineClassifier(e)}
	incRec.inner = incRec.hop
	fullRec := &recordingClassifier{inner: NewEngineClassifier(e)}

	incCfg := DefaultConfig(rate) // 250 ms hop, snapped to 240 ms below
	incCfg.Incremental = true
	dInc := NewDetector(incCfg, incRec, 0.1, 1.7)

	fullCfg := DefaultConfig(rate)
	fullCfg.HopMs = 240 // match the incremental detector's snapped cadence
	dFull := NewDetector(fullCfg, fullRec, 0.1, 1.7)

	if dInc.EffectiveHop() != dFull.EffectiveHop() {
		t.Fatalf("hop mismatch: incremental %d, full %d samples",
			dInc.EffectiveHop(), dFull.EffectiveHop())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = dInc.Stats()
				_ = dInc.HopCacheStats()
				_ = dInc.Health()
			}
		}
	}()

	rng := rand.New(rand.NewSource(77))
	push := func(n int) {
		for n > 0 {
			c := 1 + rng.Intn(700)
			if c > n {
				c = n
			}
			chunk := make([]float64, c)
			for i := range chunk {
				chunk[i] = 0.4 * rng.NormFloat64()
			}
			dInc.Push(chunk)
			dFull.Push(chunk)
			n -= c
		}
	}

	push(3 * rate / 2)
	compareLogs(t, incRec.log, fullRec.log, "warm-up")

	dInc.ConcealGap(333) // not a stride multiple: grid must survive regardless
	dFull.ConcealGap(333)
	push(rate)
	compareLogs(t, incRec.log, fullRec.log, "after short gap")

	dInc.ConcealGap(3 * rate) // longer than the window: everything cached is stale
	dFull.ConcealGap(3 * rate)
	push(rate)
	compareLogs(t, incRec.log, fullRec.log, "after long gap")

	dInc.Reset()
	dFull.Reset()
	push(2 * rate)
	compareLogs(t, incRec.log, fullRec.log, "after reset")

	close(done)
	wg.Wait()

	if len(incRec.log) == 0 {
		t.Fatal("no hops classified")
	}
	if incRec.incCalls == 0 {
		t.Fatal("engine never reused its hop cache")
	}
	st := dInc.HopCacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
	if fs := dFull.HopCacheStats(); fs != (HopCacheStats{}) {
		t.Fatalf("full-window detector recorded hop-cache stats: %+v", fs)
	}
}

// sumClassifier is a deterministic pure function of the feature window, with
// no temporal state of its own — parity through it isolates the streaming
// feature pipeline from the engine cache.
type sumClassifier struct{ probs [3]float32 }

func (s *sumClassifier) Classify(f []float32) []float32 {
	var acc [3]float64
	for i, v := range f {
		acc[i%3] += math.Abs(float64(v))
	}
	total := acc[0] + acc[1] + acc[2] + 1e-9
	for k := range s.probs {
		s.probs[k] = float32(acc[k] / total)
	}
	return s.probs[:]
}

func (s *sumClassifier) NumClasses() int { return 3 }

// TestIncrementalFeatureParity runs the incremental feature pipeline against
// the batch one with a stateless classifier: any divergence is a frontend
// bug, not an engine-cache bug.
func TestIncrementalFeatureParity(t *testing.T) {
	const rate = 2000
	incRec := &recordingClassifier{inner: &sumClassifier{}}
	fullRec := &recordingClassifier{inner: &sumClassifier{}}

	incCfg := DefaultConfig(rate)
	incCfg.Incremental = true
	dInc := NewDetector(incCfg, incRec, -0.3, 2.1)
	fullCfg := DefaultConfig(rate)
	fullCfg.HopMs = 240
	dFull := NewDetector(fullCfg, fullRec, -0.3, 2.1)

	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 40; i++ {
		chunk := make([]float64, 1+rng.Intn(900))
		for j := range chunk {
			chunk[j] = 0.3 * rng.NormFloat64()
		}
		dInc.Push(chunk)
		dFull.Push(chunk)
		if i == 15 {
			dInc.ConcealGap(411)
			dFull.ConcealGap(411)
		}
		if i == 27 {
			dInc.Reset()
			dFull.Reset()
		}
	}
	if len(incRec.log) == 0 {
		t.Fatal("no hops classified")
	}
	compareLogs(t, incRec.log, fullRec.log, "stateless classifier")

	// Without a HopClassifier the cache stats still track feature reuse.
	if st := dInc.HopCacheStats(); st.Hits == 0 {
		t.Fatalf("feature reuse never counted as a hit: %+v", st)
	}
}

// TestIncrementalHopSnapping pins the stride-grid snapping rule: incremental
// hops round down to the MFCC stride (20 ms), with the stride itself as the
// floor; the full-window pipeline keeps the requested cadence exactly.
func TestIncrementalHopSnapping(t *testing.T) {
	fc := &fakeClassifier{probs: [][]float32{{0.5, 0.5}}, n: 2}
	cases := []struct {
		rate, hopMs int
		incremental bool
		want        int // samples
	}{
		{16000, 250, true, 3840},  // 250 ms → 240 ms at the 20 ms grid
		{16000, 250, false, 4000}, // full-window keeps 250 ms
		{16000, 240, true, 3840},  // already aligned
		{16000, 10, true, 320},    // below one stride: clamp to the stride
		{4000, 250, true, 960},    // 4 kHz serve rate: stride 80, 1000→960
		{2000, 250, true, 480},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.rate)
		cfg.HopMs = c.hopMs
		cfg.Incremental = c.incremental
		d := NewDetector(cfg, fc, 0, 1)
		if got := d.EffectiveHop(); got != c.want {
			t.Errorf("rate %d hop %d ms incremental=%v: EffectiveHop %d, want %d",
				c.rate, c.hopMs, c.incremental, got, c.want)
		}
	}
}

// TestIncrementalCacheAccounting pins the hit/miss/invalidation ledger and
// its telemetry mirror: the cold-start hop and the first hop after a gap are
// the only misses, the gap is the only invalidation, and every other hop
// hits. The registry counters are pre-registered at attach time so they are
// visible (at zero) before the first hop.
func TestIncrementalCacheAccounting(t *testing.T) {
	const rate = 2000
	e := deploy.SyntheticEngine(21, 0.35)
	cfg := DefaultConfig(rate)
	cfg.Incremental = true
	d := NewDetector(cfg, NewEngineClassifier(e), 0, 1)

	reg := telemetry.NewRegistry()
	d.AttachTelemetry(reg)
	for _, name := range []string{
		"stream.hop.cache.hits", "stream.hop.cache.misses", "stream.hop.cache.invalidations",
	} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Fatalf("%s = %d before any hop, want pre-registered zero", name, v)
		}
	}

	rng := rand.New(rand.NewSource(79))
	push := func(n int) {
		chunk := make([]float64, n)
		for i := range chunk {
			chunk[i] = 0.4 * rng.NormFloat64()
		}
		d.Push(chunk)
	}

	push(3 * rate)    // cold-start miss, then hits
	d.ConcealGap(200) // one invalidation; gap shorter than a hop
	push(2 * rate)    // one post-gap miss, then hits again

	hops := reg.Counter("stream.hops").Value()
	st := d.HopCacheStats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (cold start + post-gap): %+v", st.Misses, st)
	}
	if st.Hits+st.Misses != hops {
		t.Fatalf("hits %d + misses %d != hops %d", st.Hits, st.Misses, hops)
	}
	for name, want := range map[string]int64{
		"stream.hop.cache.hits":          st.Hits,
		"stream.hop.cache.misses":        st.Misses,
		"stream.hop.cache.invalidations": st.Invalidations,
	} {
		if v := reg.Counter(name).Value(); v != want {
			t.Fatalf("%s = %d, want %d", name, v, want)
		}
	}

	// Reset zeroes the snapshot but counts as an invalidation in telemetry
	// (the registry is cumulative across resets).
	d.Reset()
	if st := d.HopCacheStats(); st != (HopCacheStats{}) {
		t.Fatalf("stats after Reset: %+v, want zeros", st)
	}
	if v := reg.Counter("stream.hop.cache.invalidations").Value(); v != 2 {
		t.Fatalf("registry invalidations after Reset = %d, want 2", v)
	}
}

// TestDetectorChunkInvariance pins Push's run-wise ingest: random chunks of
// 1–5000 samples, with NaN, ±Inf and out-of-range samples mixed in, must
// give exactly the events, posteriors and Scrubbed/Clipped counts of
// pushing the same stream one sample at a time, on the incremental and the
// full-window path.
func TestDetectorChunkInvariance(t *testing.T) {
	const rate = 4000
	e := deploy.SyntheticEngine(25, 0.35)
	rng := rand.New(rand.NewSource(91))
	audio := make([]float64, 10*rate)
	for i := range audio {
		switch v := rng.Intn(400); {
		case v == 0:
			audio[i] = math.NaN()
		case v == 1:
			audio[i] = math.Inf(1 - 2*rng.Intn(2))
		case v < 12:
			audio[i] = 3 * rng.NormFloat64()
		default:
			audio[i] = 0.3 * rng.NormFloat64()
		}
	}
	for _, incremental := range []bool{false, true} {
		type outcome struct {
			events []Event
			log    [][]float32
			stats  Stats
		}
		run := func(chunk func() int) outcome {
			cfg := DefaultConfig(rate)
			cfg.Incremental = incremental
			cfg.Threshold, cfg.SmoothWin, cfg.RefractoryMs = 0.05, 1, 1
			c := NewEngineClassifier(e)
			rec := &recordingHopClassifier{recordingClassifier: recordingClassifier{inner: c}, hop: c}
			var cls Classifier = &rec.recordingClassifier
			if incremental {
				cls = rec
			}
			d := NewDetector(cfg, cls, 0, 1)
			var o outcome
			for rest := audio; len(rest) > 0; {
				n := min(chunk(), len(rest))
				o.events = append(o.events, d.Push(rest[:n])...)
				rest = rest[n:]
			}
			o.log, o.stats = rec.log, d.Stats()
			return o
		}
		want := run(func() int { return 1 })
		got := run(func() int { return 1 + rng.Intn(5000) })
		if len(want.events) == 0 || want.stats.Scrubbed == 0 || want.stats.Clipped == 0 {
			t.Fatalf("incremental=%v: stream exercised too little: %d events, stats %+v", incremental, len(want.events), want.stats)
		}
		compareLogs(t, got.log, want.log, "chunked vs one-sample pushes")
		if len(got.events) != len(want.events) {
			t.Fatalf("incremental=%v: %d events chunked, %d one sample at a time", incremental, len(got.events), len(want.events))
		}
		for i := range want.events {
			if got.events[i] != want.events[i] {
				t.Fatalf("incremental=%v: event %d is %+v chunked, %+v one sample at a time", incremental, i, got.events[i], want.events[i])
			}
		}
		if got.stats != want.stats {
			t.Fatalf("incremental=%v: stats %+v chunked, %+v one sample at a time", incremental, got.stats, want.stats)
		}
	}
}
