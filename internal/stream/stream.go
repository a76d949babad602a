// Package stream implements always-on streaming keyword spotting — the
// deployment mode that motivates the paper's IoT constraints. Audio samples
// are pushed into a ring buffer; every hop the most recent one-second window
// is featurised to the paper's 49×10 MFCC image and classified; posteriors
// are smoothed over a short history; and a detection fires when a keyword's
// smoothed posterior crosses a threshold, with a refractory period so one
// utterance produces one event.
package stream

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Classifier maps one MFCC feature image (flattened, length frames·coeffs)
// to per-class posterior probabilities. Implementations may reuse the
// returned slice between calls; callers that retain posteriors across hops
// (the Detector's smoothing ring does) must copy them. The Detector reuses
// the feature slice too, overwriting it on the next hop, so an
// implementation that reads it after Classify returns must copy it.
type Classifier interface {
	Classify(features []float32) []float32
	NumClasses() int
}

// HopClassifier is a Classifier that can exploit temporal overlap between
// consecutive windows. ClassifyHop receives the full current window plus how
// many trailing frame rows are new since the previous call, under the
// incremental caller contract (the window's leading rows equal the previous
// window's trailing rows bit for bit); it must return exactly the posteriors
// Classify would for the same window. incremental reports whether cached
// temporal state was actually reused — false means the call recomputed the
// window in full (cold cache, invalidation, nNew ≥ window). InvalidateHop
// discards all cached temporal state; the Detector calls it on every stream
// discontinuity (Reset, gap concealment).
type HopClassifier interface {
	Classifier
	ClassifyHop(features []float32, nNew int) (probs []float32, incremental bool)
	InvalidateHop()
}

// ModelClassifier adapts an nn.Layer (float model) into a Classifier by
// applying a softmax to its logits.
type ModelClassifier struct {
	Model   nn.Layer
	Classes int

	in *tensor.Tensor // persistent input, copied into in place each hop
}

// Classify runs the model on a single feature image.
func (m *ModelClassifier) Classify(features []float32) []float32 {
	if m.in == nil || len(m.in.Data) != len(features) {
		m.in = tensor.New(1, len(features))
	}
	copy(m.in.Data, features)
	probs := train.Softmax(m.Model.Forward(m.in, false))
	return probs.Data
}

// NumClasses returns the classifier's class count.
func (m *ModelClassifier) NumClasses() int { return m.Classes }

// EngineClassifier backs the detector with a packed fixed-point
// deploy.Engine. Hops are routed through Engine.InferBatchInto — the
// engine's concurrency-safe batch entry point, so one engine can serve
// several detectors — via a reused single-frame batch whose result slots
// (Scores storage included) are held across hops, so steady-state hops do
// not allocate. The integer class scores are turned into posteriors with a
// numerically stable softmax; the returned slice is reused between calls.
// The activation policy (mixed 8/16-bit vs fully 8-bit) is the engine's
// own: set Engine.Policy before streaming and every hop runs the
// word-packed integer kernels at that width — the classifier adds no
// routing of its own.
type EngineClassifier struct {
	Engine *deploy.Engine

	batch [][]float32
	res   []deploy.BatchResult
	probs []float32
	hs    *deploy.HopState // lazy incremental hop cache (ClassifyHop)
}

// NewEngineClassifier wraps a validated engine.
func NewEngineClassifier(e *deploy.Engine) *EngineClassifier {
	return &EngineClassifier{Engine: e, batch: make([][]float32, 1)}
}

// Classify runs one hop through the engine. A frame the engine rejects
// (shape mismatch, internal fault) yields nil, which the Detector counts as
// a bad posterior and skips.
func (c *EngineClassifier) Classify(features []float32) []float32 {
	c.batch[0] = features
	c.res = c.Engine.InferBatchInto(c.res, c.batch)
	c.batch[0] = nil
	if c.res[0].Err != nil {
		return nil
	}
	c.probs = ScoresToProbs(c.res[0].Scores, float64(c.Engine.Tree.WScale), c.probs)
	return c.probs
}

// ClassifyHop is the incremental form of Classify: it routes the window
// through Engine.InferHop, which shifts the per-session activation cache by
// the hop stride and recomputes only the bands the shift cannot preserve.
// InferHop is bit-exact with full-window Infer, and the batch path Classify
// uses runs the same integer kernels, so hop and full posteriors are
// identical. The first call (or the first after InvalidateHop) allocates
// the hop state from the engine's pool and recomputes in full.
func (c *EngineClassifier) ClassifyHop(features []float32, nNew int) ([]float32, bool) {
	if c.hs == nil {
		c.hs = c.Engine.NewHopState()
	}
	sc, _ := c.Engine.InferHop(c.hs, features, nNew)
	c.probs = ScoresToProbs(sc, float64(c.Engine.Tree.WScale), c.probs)
	return c.probs, !c.hs.LastFull()
}

// InvalidateHop discards the cached activation rings; the next ClassifyHop
// recomputes the full window.
func (c *EngineClassifier) InvalidateHop() {
	if c.hs != nil {
		c.hs.Invalidate()
	}
}

// HopStats returns the hop cache's work counters (zero before the first
// ClassifyHop).
func (c *EngineClassifier) HopStats() deploy.HopStats {
	if c.hs == nil {
		return deploy.HopStats{}
	}
	return c.hs.Stats()
}

// Close releases the hop state back to the engine's pool. The serving layer
// calls it when a session finishes; an EngineClassifier must not be used
// after Close.
func (c *EngineClassifier) Close() {
	if c.hs != nil {
		c.hs.Release()
		c.hs = nil
	}
}

// ScoresToProbs turns integer tree scores into softmax posteriors, writing
// into dst (grown as needed) and returning it. A tree score is Σ w·tanh
// with the Q15 tanh already shifted out, so one count is worth wScale;
// undoing that puts the softmax on the float model's logit scale. Shared by
// EngineClassifier and the serving daemon's lane-backed classifier, so every
// engine-fed detector agrees on the posterior scale.
func ScoresToProbs(scores []int32, wScale float64, dst []float32) []float32 {
	if len(scores) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(scores) {
		dst = make([]float32, len(scores))
	}
	probs := dst[:len(scores)]
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for i, s := range scores {
		ex := math.Exp(float64(s-maxS) * wScale)
		probs[i] = float32(ex)
		sum += ex
	}
	inv := float32(1 / sum)
	for i := range probs {
		probs[i] *= inv
	}
	return probs
}

// NumClasses returns the engine's class count.
func (c *EngineClassifier) NumClasses() int { return int(c.Engine.Tree.NumClasses) }

// Event is one keyword detection.
type Event struct {
	Sample int     // stream position (in samples) at which the detection fired
	Class  int     // class index
	Score  float32 // smoothed posterior at firing time
}

// Config tunes the detector.
type Config struct {
	SampleRate   int     // input audio rate
	HopMs        int     // classification stride (default 250 ms)
	SmoothWin    int     // windows averaged for the posterior (default 3)
	Threshold    float32 // smoothed posterior needed to fire (default 0.6)
	RefractoryMs int     // per-class dead time after a detection (default 750 ms)
	IgnoreClass  int     // class never reported (e.g. silence); -1 to disable
	IgnoreClass2 int     // second ignored class (e.g. unknown); -1 to disable

	// WatchdogHops is how many consecutive hops the posterior may stay
	// bitwise-identical or saturated (max ≥ 0.9999) before the smoothing
	// history is declared stuck and reset (default 16; ≤ 0 uses the
	// default). A stuck ring otherwise never recovers from a transient
	// numeric fault.
	WatchdogHops int

	// Incremental switches the detector to the temporal-cache pipeline: a
	// streaming MFCC frontend featurises only newly arrived frames, and a
	// HopClassifier (EngineClassifier qualifies) reuses its activation cache
	// across hops. Posteriors are bit-identical to the full-window pipeline
	// at the same cadence. The hop is snapped down to the MFCC stride grid
	// (20 ms; 250 ms → 240 ms) so streaming frames land on the same anchors
	// batch featurisation would use — HopMs multiples of 40 ms additionally
	// keep the conv caches aligned through the stride-2 layer and maximise
	// reuse.
	Incremental bool
}

// HopCacheStats counts the incremental pipeline's cache behaviour. A hit is
// a hop that reused cached temporal state end to end; a miss recomputed the
// window (cold start, post-discontinuity, or a classifier-reported full
// recompute); invalidations counts explicit discards (Reset, ConcealGap).
// All zero when Config.Incremental is off.
type HopCacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// Stats counts the faults the detector has absorbed. All counters are
// cumulative since construction or the last Reset.
//
// The detector mutates its counters with atomic adds and Stats returns an
// atomically loaded snapshot, so a monitoring goroutine (the telemetry
// server, a test harness) can read them while the feed goroutine pushes
// audio — pinned by TestStatsConcurrentWithPush under -race.
type Stats struct {
	Scrubbed       int64 // non-finite input samples replaced by zero
	Clipped        int64 // input samples hard-limited into [-1, 1]
	Concealed      int64 // zero samples inserted for dropped chunks (ConcealGap)
	BadPosteriors  int64 // classifier outputs discarded (panic, wrong length, non-finite)
	WatchdogResets int64 // smoothing-history resets from stuck/saturated posteriors
}

// DefaultConfig returns detection parameters suitable for the synthetic
// corpus.
func DefaultConfig(sampleRate int) Config {
	return Config{
		SampleRate:   sampleRate,
		HopMs:        250,
		SmoothWin:    3,
		Threshold:    0.6,
		RefractoryMs: 750,
		IgnoreClass:  -1,
		IgnoreClass2: -1,
	}
}

// Detector consumes an audio stream and emits keyword events.
type Detector struct {
	cfg      Config
	cls      Classifier
	buffered int // samples since the last Reset, capped at one second
	pos      int // absolute stream position in samples
	sinceHop int // samples since the last classification
	history  [][]float32
	lastFire []int // per class, absolute sample of last event (-1 = never)

	// featMean/featStd standardise features the same way the training
	// corpus was normalised.
	featMean, featStd float32

	// Full-window pipeline state (Incremental off): the ring of the last
	// second of audio, re-featurised in full and in place by mfcc every
	// hop. An incremental detector allocates neither.
	mfcc   *dsp.MFCC
	window []float64

	// Incremental pipeline state (Config.Incremental). frontend featurises
	// newly completed frames as samples arrive; hopCls is cls when it also
	// implements HopClassifier. pendingInval forces the next hop to treat
	// the whole window as new — set by Reset/ConcealGap, the invalidation
	// contract every stream discontinuity must honour.
	frontend     *dsp.Frontend
	hopCls       HopClassifier
	lastTotal    int64 // frontend frame count at the previous hop
	pendingInval bool

	featWin    []float32     // current window features, normalised per hop (both pipelines)
	frames     int           // window height in frames
	hopSamples int           // per-hop sample count (stride-snapped when incremental)
	hopStats   HopCacheStats // mutated atomically; see HopCacheStats

	stats     Stats     // mutated atomically; see Stats
	lastProbs []float32 // previous hop's accepted posterior, for the watchdog
	stuckHops int64     // consecutive stuck/saturated hops (atomic: Health reads it)

	obs detObs // telemetry instruments; nil fields (the default) are no-ops

	// Per-hop scratch, reused so a steady stream doesn't allocate.
	smoothed []float32
}

// detObs bundles the detector's optional telemetry instruments. All fields
// are nil until AttachTelemetry, and nil instruments are no-ops, so the
// unmonitored detector pays only dead branches.
type detObs struct {
	samples        *telemetry.Counter
	hops           *telemetry.Counter
	events         *telemetry.Counter
	scrubbed       *telemetry.Counter
	clipped        *telemetry.Counter
	concealed      *telemetry.Counter
	badPosteriors  *telemetry.Counter
	watchdogResets *telemetry.Counter
	hopNs          *telemetry.Histogram

	// Incremental hop-cache counters, pre-registered at attach time so
	// dashboards see explicit zeros even before the first hop (or when the
	// detector runs the full-window pipeline).
	hopHits   *telemetry.Counter
	hopMisses *telemetry.Counter
	hopInvals *telemetry.Counter
}

// AttachTelemetry registers the detector's counters and its detection-
// latency histogram under the "stream." prefix in reg. Call before the
// stream starts; the instruments themselves are lock-free but the obs
// field is written without synchronisation.
func (d *Detector) AttachTelemetry(reg *telemetry.Registry) {
	d.obs = detObs{
		samples:        reg.Counter("stream.samples"),
		hops:           reg.Counter("stream.hops"),
		events:         reg.Counter("stream.events"),
		scrubbed:       reg.Counter("stream.faults.scrubbed"),
		clipped:        reg.Counter("stream.faults.clipped"),
		concealed:      reg.Counter("stream.faults.concealed"),
		badPosteriors:  reg.Counter("stream.faults.bad_posteriors"),
		watchdogResets: reg.Counter("stream.faults.watchdog_resets"),
		hopNs:          reg.LatencyHistogram("stream.hop.ns"),
		hopHits:        reg.Counter("stream.hop.cache.hits"),
		hopMisses:      reg.Counter("stream.hop.cache.misses"),
		hopInvals:      reg.Counter("stream.hop.cache.invalidations"),
	}
}

// NewDetector builds a streaming detector around a classifier. featMean and
// featStd must match the normalisation statistics of the data the
// classifier was trained on.
func NewDetector(cfg Config, cls Classifier, featMean, featStd float32) *Detector {
	if cfg.HopMs <= 0 {
		cfg.HopMs = 250
	}
	if cfg.SmoothWin <= 0 {
		cfg.SmoothWin = 3
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.6
	}
	if cfg.RefractoryMs <= 0 {
		cfg.RefractoryMs = 750
	}
	if cfg.WatchdogHops <= 0 {
		cfg.WatchdogHops = 16
	}
	if featStd == 0 {
		featStd = 1
	}
	mfccCfg := dsp.DefaultMFCCConfig(cfg.SampleRate)
	d := &Detector{
		cfg:      cfg,
		cls:      cls,
		history:  make([][]float32, 0, cfg.SmoothWin),
		lastFire: make([]int, cls.NumClasses()),
		featMean: featMean,
		featStd:  featStd,
		frames:   mfccCfg.NumFrames(cfg.SampleRate),
	}
	d.featWin = make([]float32, d.frames*mfccCfg.NumCoeffs)
	d.hopSamples = cfg.SampleRate * cfg.HopMs / 1000
	if cfg.Incremental {
		// Snap the hop to the MFCC stride grid: every hop position is then
		// a multiple of the frame stride, so the streaming frontend's frame
		// anchors coincide with the ones batch featurisation of the hop's
		// window would use — the precondition for bit-exact feature reuse.
		st := mfccCfg.Stride()
		if d.hopSamples >= st {
			d.hopSamples -= d.hopSamples % st
		} else {
			d.hopSamples = st
		}
		d.frontend = dsp.NewFrontend(mfccCfg, d.frames)
		if hc, ok := cls.(HopClassifier); ok {
			d.hopCls = hc
		}
	} else {
		d.mfcc = dsp.NewMFCC(mfccCfg)
		d.window = make([]float64, cfg.SampleRate)
	}
	for i := range d.lastFire {
		d.lastFire[i] = -1 << 30
	}
	return d
}

// EffectiveHop returns the detector's hop in samples — Config.HopMs snapped
// down to the MFCC stride grid when the incremental pipeline is on.
func (d *Detector) EffectiveHop() int { return d.hopSamples }

// HopCacheStats returns a snapshot of the incremental pipeline's cache
// counters. Safe to call from any goroutine.
func (d *Detector) HopCacheStats() HopCacheStats {
	return HopCacheStats{
		Hits:          atomic.LoadInt64(&d.hopStats.Hits),
		Misses:        atomic.LoadInt64(&d.hopStats.Misses),
		Invalidations: atomic.LoadInt64(&d.hopStats.Invalidations),
	}
}

// invalidateHop discards all incremental state: the hop classifier's
// activation rings immediately, and the feature window's reuse at the next
// hop (which will treat every frame as new). Every stream discontinuity
// must route through here — a cache carried across a discontinuity would
// silently classify stale activations.
func (d *Detector) invalidateHop() {
	if d.frontend == nil {
		return
	}
	d.pendingInval = true
	if d.hopCls != nil {
		d.hopCls.InvalidateHop()
	}
	atomic.AddInt64(&d.hopStats.Invalidations, 1)
	d.obs.hopInvals.Inc()
}

// pushBlock is how many samples Push sanitises at a time, into a stack
// block it then hands on in runs.
const pushBlock = 256

// Push consumes audio samples and returns any detections they trigger.
// Input is sanitised before it reaches the feature pipeline: non-finite
// samples (a glitchy ADC) are scrubbed to zero and samples outside [-1, 1]
// are hard-clipped, with both faults counted in Stats. Push never panics,
// even when the underlying classifier does.
//
// Samples move in runs: each block is sanitised at once, then handed to
// the feature pipeline in runs that end on the sample completing a hop, so
// every hop classifies exactly the stream it would one sample at a time.
func (d *Detector) Push(samples []float64) []Event {
	var events []Event
	var blk [pushBlock]float64
	d.obs.samples.Add(int64(len(samples)))
	for len(samples) > 0 {
		b := blk[:min(len(samples), pushBlock)]
		d.sanitise(b, samples)
		samples = samples[len(b):]
		for len(b) > 0 {
			// A hop fires on the sample that brings sinceHop to the hop
			// with a full second buffered.
			run := b[:min(len(b), max(d.hopSamples-d.sinceHop, d.cfg.SampleRate-d.buffered, 1))]
			b = b[len(run):]
			d.ingest(run)
			if d.sinceHop < d.hopSamples || d.buffered < d.cfg.SampleRate {
				continue
			}
			d.sinceHop = 0
			d.obs.hops.Inc()
			var t0 time.Time
			if d.obs.hopNs != nil {
				t0 = time.Now()
			}
			ev, ok := d.classify()
			if d.obs.hopNs != nil {
				d.obs.hopNs.ObserveSince(t0)
			}
			if ok {
				d.obs.events.Inc()
				events = append(events, ev)
			}
		}
	}
	return events
}

// sanitise copies src[:len(dst)] into dst with non-finite samples scrubbed
// to zero and the rest clipped into [-1, 1], counting both faults.
func (d *Detector) sanitise(dst, src []float64) {
	var scrubbed, clipped int64
	for i, s := range src[:len(dst)] {
		switch {
		case s >= -1 && s <= 1: // false for NaN
		case math.IsNaN(s) || math.IsInf(s, 0):
			s = 0
			scrubbed++
		case s > 1:
			s = 1
			clipped++
		default:
			s = -1
			clipped++
		}
		dst[i] = s
	}
	if scrubbed > 0 {
		atomic.AddInt64(&d.stats.Scrubbed, scrubbed)
		d.obs.scrubbed.Add(scrubbed)
	}
	if clipped > 0 {
		atomic.AddInt64(&d.stats.Clipped, clipped)
		d.obs.clipped.Add(clipped)
	}
}

// ingest hands a run of sanitised samples to the feature pipeline — the
// streaming frontend, or the full path's one-second ring — and advances
// the stream position and hop counters.
func (d *Detector) ingest(run []float64) {
	if d.frontend != nil {
		d.frontend.Push(run)
	} else {
		for p, r := d.pos%len(d.window), run; len(r) > 0; p = 0 {
			r = r[copy(d.window[p:], r):]
		}
	}
	d.pos += len(run)
	d.buffered = min(d.buffered+len(run), d.cfg.SampleRate)
	d.sinceHop += len(run)
}

// gapZeros is the block of zeros ConcealGap pushes a gap through. Nothing
// writes it: Push only reads its input.
var gapZeros [pushBlock]float64

// ConcealGap zero-fills n dropped samples, keeping the stream position and
// hop cadence consistent when a capture buffer is lost. Conceals are counted
// in Stats; the zero window may still trigger classifications, which the
// smoothing history absorbs.
//
// A gap is a stream discontinuity, so all incremental state is invalidated
// before the zeros are pushed: the hop classifier's activation rings are
// discarded and the next hop re-featurises and re-infers the whole window.
// The streaming frontend does consume the concealment zeros — they are the
// stream's official reconstruction, and skipping them would shift every
// later frame off the stride grid — so post-gap windows stay bit-identical
// to full-window featurisation of the same zero-filled stream.
//
// The zeros come from one shared read-only block, pushed piece by piece, so
// a gap allocates nothing of its own size: one TCP gap header may ask for
// 16 × MaxChunkSamples.
func (d *Detector) ConcealGap(n int) []Event {
	if n <= 0 {
		return nil
	}
	d.invalidateHop()
	var events []Event
	for rem := n; rem > 0; rem -= len(gapZeros) {
		events = append(events, d.Push(gapZeros[:min(rem, len(gapZeros))])...)
	}
	atomic.AddInt64(&d.stats.Concealed, int64(n))
	d.obs.concealed.Add(int64(n))
	return events
}

// Stats returns a snapshot of the cumulative fault counters. It is safe to
// call from any goroutine, including while another goroutine is pushing
// audio.
func (d *Detector) Stats() Stats {
	return Stats{
		Scrubbed:       atomic.LoadInt64(&d.stats.Scrubbed),
		Clipped:        atomic.LoadInt64(&d.stats.Clipped),
		Concealed:      atomic.LoadInt64(&d.stats.Concealed),
		BadPosteriors:  atomic.LoadInt64(&d.stats.BadPosteriors),
		WatchdogResets: atomic.LoadInt64(&d.stats.WatchdogResets),
	}
}

// Health reports the detector's watchdog state: nil while the posterior
// stream is live, an error once it has been stuck or saturated for at
// least half the watchdog budget — the point at which a supervisor should
// consider the pipeline degraded even though the watchdog has not yet
// reset it. Safe to call from any goroutine (the /healthz endpoint does).
func (d *Detector) Health() error {
	stuck := atomic.LoadInt64(&d.stuckHops)
	if budget := int64(d.cfg.WatchdogHops); stuck >= (budget+1)/2 {
		return fmt.Errorf("stream: posterior stream stuck for %d hops (watchdog resets at %d)", stuck, budget)
	}
	return nil
}

// safeClassify runs the classifier, converting panics, wrong-length outputs
// and non-finite posteriors into a rejected hop instead of a crash.
func (d *Detector) safeClassify(feat []float32) (probs []float32, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			probs, ok = nil, false
		}
	}()
	probs = d.cls.Classify(feat)
	if len(probs) != d.cls.NumClasses() {
		return nil, false
	}
	for _, p := range probs {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			return nil, false
		}
	}
	return probs, true
}

// watchdog detects a stuck or saturated posterior stream — the signature of
// a wedged feature pipeline or a numerically dead classifier — and resets
// the smoothing history so the detector can recover once inputs heal.
func (d *Detector) watchdog(probs []float32) {
	identical := d.lastProbs != nil && len(probs) == len(d.lastProbs)
	if identical {
		for i := range probs {
			if probs[i] != d.lastProbs[i] {
				identical = false
				break
			}
		}
	}
	saturated := false
	for _, p := range probs {
		if p >= 0.9999 {
			saturated = true
			break
		}
	}
	if identical || saturated {
		atomic.AddInt64(&d.stuckHops, 1)
	} else {
		atomic.StoreInt64(&d.stuckHops, 0)
	}
	d.lastProbs = append(d.lastProbs[:0], probs...)
	if atomic.LoadInt64(&d.stuckHops) >= int64(d.cfg.WatchdogHops) {
		d.history = d.history[:0]
		atomic.StoreInt64(&d.stuckHops, 0)
		atomic.AddInt64(&d.stats.WatchdogResets, 1)
		d.obs.watchdogResets.Inc()
	}
}

// safeClassifyHop is safeClassify through the incremental entry point. A
// panic mid-hop leaves the classifier's cache self-poisoned (HopState
// invalidates itself on any interrupted update), so the hop after a fault
// recomputes in full rather than trusting half-written state.
func (d *Detector) safeClassifyHop(feat []float32, nNew int) (probs []float32, incremental, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			probs, incremental, ok = nil, false, false
		}
	}()
	probs, incremental = d.hopCls.ClassifyHop(feat, nNew)
	if len(probs) != d.hopCls.NumClasses() {
		return nil, false, false
	}
	for _, p := range probs {
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			return nil, false, false
		}
	}
	return probs, incremental, true
}

// hopFeatures produces the current window's normalised features in featWin
// and reports how many trailing frames are new. The incremental path copies
// the frontend's cached frames (only newly completed frames were featurised
// this hop); the full path re-featurises the whole one-second ring in
// place, from its oldest sample, and counts every frame as new.
func (d *Detector) hopFeatures() (feat []float32, nNew int, incremental bool) {
	nNew = d.frames
	if d.frontend != nil {
		// A hop runs only once a second has been pushed since the last
		// Reset, by which time the frontend has completed a full window of
		// frames, so Window always fills featWin here.
		d.frontend.Window(d.featWin)
		total := d.frontend.TotalFrames()
		if n := int(total - d.lastTotal); !d.pendingInval && n >= 0 && n <= d.frames {
			nNew = n
		}
		d.lastTotal = total
		d.pendingInval = false
	} else {
		d.mfcc.ComputeRing(d.featWin, d.window, d.pos%len(d.window))
	}
	for i, v := range d.featWin {
		d.featWin[i] = (v - d.featMean) / d.featStd
	}
	return d.featWin, nNew, nNew < d.frames
}

// classify featurises the current window, smooths posteriors and applies
// the firing rule.
func (d *Detector) classify() (Event, bool) {
	feat, nNew, featReuse := d.hopFeatures()
	var probs []float32
	var ok bool
	hit := featReuse
	if d.frontend != nil && d.hopCls != nil {
		var incremental bool
		probs, incremental, ok = d.safeClassifyHop(feat, nNew)
		hit = featReuse && incremental
	} else {
		probs, ok = d.safeClassify(feat)
	}
	if d.frontend != nil {
		if hit {
			atomic.AddInt64(&d.hopStats.Hits, 1)
			d.obs.hopHits.Inc()
		} else {
			atomic.AddInt64(&d.hopStats.Misses, 1)
			d.obs.hopMisses.Inc()
		}
	}
	if !ok {
		atomic.AddInt64(&d.stats.BadPosteriors, 1)
		d.obs.badPosteriors.Inc()
		return Event{}, false // skip the hop; the smoothing ring keeps its history
	}
	d.watchdog(probs)

	// Classifiers may reuse their output slice between hops (EngineClassifier
	// does), so the ring stores a copy. The ring rotates in place: while it
	// fills, each hop takes the next slot; once full, the oldest slot moves
	// to the back. Every slot keeps its storage, so a steady stream
	// allocates nothing here.
	if n := len(d.history); n < d.cfg.SmoothWin {
		d.history = d.history[:n+1]
	} else {
		oldest := d.history[0]
		copy(d.history, d.history[1:])
		d.history[n-1] = oldest
	}
	slot := &d.history[len(d.history)-1]
	*slot = append((*slot)[:0], probs...)
	if len(d.history) < d.cfg.SmoothWin {
		return Event{}, false // warm-up: wait for a full smoothing history
	}
	if cap(d.smoothed) < len(probs) {
		d.smoothed = make([]float32, len(probs))
	}
	smoothed := d.smoothed[:len(probs)]
	for i := range smoothed {
		smoothed[i] = 0
	}
	for _, h := range d.history {
		for i, p := range h {
			smoothed[i] += p
		}
	}
	inv := 1 / float32(len(d.history))
	best, bestP := 0, float32(-1)
	for i := range smoothed {
		smoothed[i] *= inv
		if smoothed[i] > bestP {
			best, bestP = i, smoothed[i]
		}
	}

	if best == d.cfg.IgnoreClass || best == d.cfg.IgnoreClass2 {
		return Event{}, false
	}
	if bestP < d.cfg.Threshold {
		return Event{}, false
	}
	refractory := d.cfg.SampleRate * d.cfg.RefractoryMs / 1000
	if d.pos-d.lastFire[best] < refractory {
		return Event{}, false
	}
	d.lastFire[best] = d.pos
	return Event{Sample: d.pos, Class: best, Score: bestP}, true
}

// Reset clears the detector's audio and posterior state, including the
// fault counters and watchdog state. All incremental state is invalidated
// and the streaming frontend re-anchors at stream position zero.
func (d *Detector) Reset() {
	d.invalidateHop()
	if d.frontend != nil {
		d.frontend.Reset()
		d.lastTotal = 0
	}
	d.pos = 0
	d.buffered = 0
	d.sinceHop = 0
	d.history = d.history[:0]
	for _, p := range []*int64{
		&d.stats.Scrubbed, &d.stats.Clipped, &d.stats.Concealed,
		&d.stats.BadPosteriors, &d.stats.WatchdogResets, &d.stuckHops,
		&d.hopStats.Hits, &d.hopStats.Misses, &d.hopStats.Invalidations,
	} {
		atomic.StoreInt64(p, 0)
	}
	d.lastProbs = nil
	for i := range d.lastFire {
		d.lastFire[i] = -1 << 30
	}
	for i := range d.window {
		d.window[i] = 0
	}
}

// TrainStats computes the mean/std normalisation constants of a feature
// tensor set, matching speechcmd's corpus normalisation for raw streams.
func TrainStats(features []*tensor.Tensor) (mean, std float32) {
	var sum, sumSq float64
	var n int
	for _, f := range features {
		for _, v := range f.Data {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			n++
		}
	}
	if n == 0 {
		return 0, 1
	}
	m := sum / float64(n)
	s := math.Sqrt(sumSq/float64(n) - m*m)
	if s < 1e-6 {
		s = 1
	}
	return float32(m), float32(s)
}
