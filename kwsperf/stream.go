package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/deploy"
	"repro/internal/dsp"
	"repro/internal/stream"
)

const (
	streamRate   = 16000
	streamClips  = 20
	streamWarmup = 2 * time.Second
	// prefixHops is how many leading hops of the incremental detector are
	// compared with a full-window detector at the same cadence.
	prefixHops = 128
	// Every oracleEvery-th hop's window (at most oracleMax of them) is
	// re-scored with the engine's scalar oracle NaiveInt.
	oracleEvery = 256
	oracleMax   = 48
	// traceBlock is the length, in hops, of each block of a traced run.
	traceBlock = 32
)

// traceCycle orders a traced run's blocks: untraced hops (0), traced hops
// (1) and frontend replay (2) interleave so all three see the same host
// conditions, and untraced and traced blocks each follow a replay block
// equally often — the replay's allocations would otherwise burden whichever
// block comes next.
var traceCycle = [...]int{0, 1, 2, 1, 0, 2}

// probe wraps the engine classifier the detector calls. It keeps the
// posteriors of the first hops (the prefix check) and every few hops' window
// (the oracle check) in buffers allocated up front, and times each call while
// timing is set. The first call is always timed, for deploy.load_ms.
type probe struct {
	cls      *stream.EngineClassifier
	calls    int
	timing   bool
	start    int64 // last timed call
	dur      int64
	firstDur int64

	keep  [][]float32
	every int
	wins  []oracleWin
	nWins int
}

type oracleWin struct{ feat, probs []float32 }

func newProbe(cls *stream.EngineClassifier, prefix, every, maxWins int) *probe {
	classes := cls.NumClasses()
	featLen := int(cls.Engine.Frames * cls.Engine.Coeffs)
	p := &probe{cls: cls, every: every}
	p.keep = make([][]float32, prefix)
	for i := range p.keep {
		p.keep[i] = make([]float32, 0, classes)
	}
	p.wins = make([]oracleWin, maxWins)
	for i := range p.wins {
		p.wins[i] = oracleWin{feat: make([]float32, 0, featLen), probs: make([]float32, 0, classes)}
	}
	return p
}

func (p *probe) NumClasses() int { return p.cls.NumClasses() }
func (p *probe) InvalidateHop()  { p.cls.InvalidateHop() }

func (p *probe) Classify(f []float32) []float32 {
	t0 := p.begin()
	out := p.cls.Classify(f)
	p.end(t0, f, out)
	return out
}

func (p *probe) ClassifyHop(f []float32, nNew int) ([]float32, bool) {
	t0 := p.begin()
	out, inc := p.cls.ClassifyHop(f, nNew)
	p.end(t0, f, out)
	return out, inc
}

func (p *probe) begin() int64 {
	if p.timing || p.calls == 0 {
		return nowNs()
	}
	return 0
}

func (p *probe) end(t0 int64, f, out []float32) {
	if t0 != 0 {
		p.start, p.dur = t0, nowNs()-t0
		if p.calls == 0 {
			p.firstDur = p.dur
		}
	}
	if p.calls < len(p.keep) {
		p.keep[p.calls] = append(p.keep[p.calls][:0], out...)
	}
	if p.every > 0 && p.calls%p.every == 0 && p.nWins < len(p.wins) {
		w := &p.wins[p.nWins]
		w.feat = append(w.feat[:0], f...)
		w.probs = append(w.probs[:0], out...)
		p.nWins++
	}
	p.calls++
}

// coldStreamSetup decodes and validates the engine, builds the detector and
// pushes the first second of audio, which completes the first hop. It
// returns the whole set-up time and the engine's share of it (decode,
// validate and the first classification).
func coldStreamSetup(art []byte, first []float64, cfg stream.Config) (setup, load int64, err error) {
	t0 := nowNs()
	e, err := decodeEngine(art)
	if err != nil {
		return 0, 0, err
	}
	decoded := nowNs()
	p := newProbe(stream.NewEngineClassifier(e), 0, 0, 0)
	det := stream.NewDetector(cfg, p, 0, 1)
	det.Push(first)
	setup = nowNs() - t0
	if p.calls != 1 {
		return 0, 0, fmt.Errorf("set-up: the first second completed %d hops, want 1", p.calls)
	}
	return setup, decoded - t0 + p.firstDur, nil
}

// dspReplay re-runs a hop's frontend work on its own, outside the detector:
// the streaming Frontend (Push + Window) for the incremental pipeline, batch
// MFCC.Compute over the whole window for the full one.
type dspReplay struct {
	tp    *tape
	pos   int64
	fe    *dsp.Frontend
	win   []float32
	mfcc  *dsp.MFCC
	wave  []float64
	buf   []float64
	nHops int64
	// frames, mallocs and time spent, summed over replayed hops
	frames  int64
	mallocs uint64
	start   []int64
	dur     []int64
}

func newDSPReplay(tp *tape, incremental bool, hop, capHops int) *dspReplay {
	cfg := dsp.DefaultMFCCConfig(tp.rate)
	nf := cfg.NumFrames(tp.rate)
	r := &dspReplay{
		tp:    tp,
		pos:   int64(tp.rate),
		wave:  make([]float64, tp.rate),
		buf:   make([]float64, hop),
		start: make([]int64, 0, capHops),
		dur:   make([]int64, 0, capHops),
	}
	if incremental {
		r.fe = dsp.NewFrontend(cfg, nf)
		r.win = make([]float32, nf*cfg.NumCoeffs)
		tp.fill(r.wave, 0)
		r.fe.Push(r.wave)
	} else {
		r.mfcc = dsp.NewMFCC(cfg)
	}
	return r
}

// block replays n consecutive hops, timing each one.
func (r *dspReplay) block(n int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	hop := int64(len(r.buf))
	for i := 0; i < n; i++ {
		var t0, t1 int64
		if r.fe != nil {
			r.tp.fill(r.buf, r.pos)
			f0 := r.fe.TotalFrames()
			t0 = nowNs()
			r.fe.Push(r.buf)
			r.fe.Window(r.win)
			t1 = nowNs()
			r.frames += r.fe.TotalFrames() - f0
		} else {
			r.tp.fill(r.wave, r.pos+hop-int64(len(r.wave)))
			t0 = nowNs()
			f := r.mfcc.Compute(r.wave)
			t1 = nowNs()
			r.frames += int64(len(f.Data) / r.mfcc.Config().NumCoeffs)
		}
		r.pos += hop
		r.start = append(r.start, t0)
		r.dur = append(r.dur, t1-t0)
	}
	runtime.ReadMemStats(&ms)
	r.mallocs += ms.Mallocs - m0
	r.nHops += int64(n)
}

// runStream drives one stream.Detector closed loop, one hop of audio per
// Push, through the incremental (temporal-cache) or full-window pipeline.
func runStream(o opts, incremental bool) (*result, error) {
	workload := "stream-full"
	if incremental {
		workload = "stream-incremental"
	}
	art, err := engineArtifact()
	if err != nil {
		return nil, err
	}
	tp := newTape(streamRate, streamClips, o.seed)
	cfg := stream.DefaultConfig(streamRate)
	cfg.Incremental = incremental
	first := make([]float64, streamRate)
	tp.fill(first, 0)

	// Everything the harness keeps is allocated before the heap baseline.
	capHops := o.seconds*5000 + 1024
	setups := make([]int64, 0, 4*o.seconds)
	loads := make([]int64, 0, 4*o.seconds)
	var win windows
	lat := make([]int64, 0, capHops)
	var trStart, trPush, trCls, trClsStart []int64
	if o.trace {
		trStart = make([]int64, 0, capHops)
		trPush = make([]int64, 0, capHops)
		trCls = make([]int64, 0, capHops)
		trClsStart = make([]int64, 0, capHops)
	}
	buf := make([]float64, streamRate)
	prefixEvents := make([]stream.Event, 0, 4*prefixHops)
	// A first, uncounted set-up leaves the process's one-time
	// initialisation out of the heap reading.
	if _, _, err := coldStreamSetup(art, first, cfg); err != nil {
		return nil, err
	}
	base := liveHeap()

	e, err := decodeEngine(art)
	if err != nil {
		return nil, err
	}
	cls := stream.NewEngineClassifier(e)
	p := newProbe(cls, prefixHops, oracleEvery, oracleMax)
	det := stream.NewDetector(cfg, p, 0, 1)
	hop := det.EffectiveHop()
	buf = buf[:hop]

	prefixEvents = append(prefixEvents, det.Push(first)...)
	pos := int64(streamRate)
	for w0 := time.Now(); p.calls < prefixHops || time.Since(w0) < streamWarmup; {
		tp.fill(buf, pos)
		evs := det.Push(buf)
		pos += int64(hop)
		if p.calls <= prefixHops {
			prefixEvents = append(prefixEvents, evs...)
		}
	}
	heap := liveHeap() - base

	var replay *dspReplay
	if o.trace {
		replay = newDSPReplay(tp, incremental, hop, capHops)
	}
	bad0 := det.Stats().BadPosteriors
	var pushes, missing int64
	end := nowNs() + int64(o.seconds)*int64(time.Second)
	win.open(len(lat))
	for i := 0; nowNs() < end; i++ {
		if win.expired() {
			win.close(lat)
			// One cold set-up per window, outside the window, so set-up
			// times sample the same spread of host conditions as the hops.
			runtime.GC()
			s, l, err := coldStreamSetup(art, first, cfg)
			if err != nil {
				return nil, err
			}
			setups, loads = append(setups, s), append(loads, l)
			win.open(len(lat))
		}
		kind := 0 // untraced
		if o.trace {
			kind = traceCycle[(i/traceBlock)%len(traceCycle)]
		}
		if kind == 2 {
			replay.block(traceBlock)
			i += traceBlock - 1
			continue
		}
		tp.fill(buf, pos)
		p.timing = kind == 1
		c := p.calls
		t0 := nowNs()
		det.Push(buf)
		t1 := nowNs()
		pos += int64(hop)
		pushes++
		win.audio += float64(hop) / streamRate
		if p.calls != c+1 {
			missing++
		}
		if kind == 0 {
			lat = append(lat, t1-t0)
		} else {
			trStart = append(trStart, t0)
			trPush = append(trPush, t1-t0)
			trCls = append(trCls, p.dur)
			trClsStart = append(trClsStart, p.start)
		}
	}
	win.close(lat)
	p.timing = false

	r := &result{Correct: true, Attempted: pushes}
	r.Failed = missing + det.Stats().BadPosteriors - bad0
	r.check(pushes > 0, "no hop completed in the timed window")
	if incremental {
		checkPrefix(r, e, tp, p, prefixEvents)
	}
	checkOracle(r, e, p)

	if !o.trace {
		win.report(r, setups)
		r.set("heap_mb", float64(heap)/1e6, "MB")
		return r, nil
	}

	framesPerHop := float64(replay.frames) / float64(replay.nHops)
	dspHop := median(replay.dur)
	clsHop := median(trCls)
	self := make([]int64, len(trPush))
	for i := range trPush {
		self[i] = trPush[i] - trCls[i]
	}
	selfHop := median(self) - dspHop
	untraced := median(lat)
	ledger := dspHop + clsHop + selfHop
	r.set("dsp.frames_per_hop", framesPerHop, "count")
	r.set("dsp.us_per_frame", dspHop/framesPerHop/1e3, "us")
	r.set("dsp.allocs_per_hop", float64(replay.mallocs)/float64(replay.nHops), "count")
	r.set("deploy.us_per_hop", clsHop/1e3, "us")
	if hs := cls.HopStats(); hs.Hops > 0 {
		r.set("deploy.columns_per_hop", float64(hs.ColumnsComputed)/float64(hs.Hops), "count")
	}
	if hc := det.HopCacheStats(); hc.Hits+hc.Misses > 0 {
		r.set("deploy.hop_reuse_ratio", float64(hc.Hits)/float64(hc.Hits+hc.Misses), "ratio")
	}
	r.set("deploy.load_ms", median(loads)/1e6, "ms")
	r.set("stream.self_us_per_hop", selfHop/1e3, "us")
	r.set("stream.hop_ms_p99", quantile(lat, 0.99)/1e6, "ms")
	r.set("trace.overhead_pct", pct(median(trPush), untraced), "%")
	closure := pct(ledger, untraced)
	r.set("ledger.closure_pct", closure, "%")
	fmt.Fprintf(os.Stderr, "%s ledger (median µs per hop): dsp %.1f + deploy %.1f + stream %.1f = %.1f vs untraced Push %.1f (%+.1f%%, tolerance ±%d%%)\n",
		workload, dspHop/1e3, clsHop/1e3, selfHop/1e3, ledger/1e3, untraced/1e3, closure, ledgerTolerancePct)
	r.check(closure >= -ledgerTolerancePct && closure <= ledgerTolerancePct,
		"ledger closes at %+.1f%%, outside ±%d%%", closure, ledgerTolerancePct)

	spans := make([]span, 0, 2*len(trPush)+len(replay.dur))
	for i := range trPush {
		spans = append(spans,
			span{Name: "stream.push", Hop: int64(i), Start: trStart[i], Dur: trPush[i]},
			span{Name: "deploy.classify", Parent: "stream.push", Hop: int64(i), Start: trClsStart[i], Dur: trCls[i]})
	}
	for i := range replay.dur {
		spans = append(spans, span{Name: "dsp.replay", Hop: int64(i), Start: replay.start[i], Dur: replay.dur[i]})
	}
	if err := writeSpans(workload, o.seed, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return r, nil
}

// checkPrefix replays the run's first hops through a full-window detector at
// the incremental detector's snapped cadence and requires identical
// posteriors (bit for bit) and events.
func checkPrefix(r *result, e *deploy.Engine, tp *tape, p *probe, events []stream.Event) {
	cfg := stream.DefaultConfig(streamRate)
	cfg.HopMs = 240
	tw := newProbe(stream.NewEngineClassifier(e), prefixHops, 0, 0)
	twin := stream.NewDetector(cfg, tw, 0, 1)
	buf := make([]float64, streamRate)
	tp.fill(buf, 0)
	var want []stream.Event
	want = append(want, twin.Push(buf)...)
	pos := int64(streamRate)
	hop := twin.EffectiveHop()
	for tw.calls < prefixHops {
		tp.fill(buf[:hop], pos)
		want = append(want, twin.Push(buf[:hop])...)
		pos += int64(hop)
	}
	for i := 0; i < prefixHops; i++ {
		if !sameFloats(p.keep[i], tw.keep[i]) {
			r.check(false, "hop %d: incremental posteriors differ from the full-window detector", i)
			return
		}
	}
	same := len(want) == len(events)
	for i := 0; same && i < len(want); i++ {
		same = want[i] == events[i]
	}
	r.check(same, "prefix events differ from the full-window detector: %d vs %d events", len(events), len(want))
}

// checkOracle re-scores the sampled windows with the engine's scalar oracle.
func checkOracle(r *result, e *deploy.Engine, p *probe) {
	r.check(p.nWins > 0, "no window was sampled for the oracle check")
	for i := 0; i < p.nWins; i++ {
		w := p.wins[i]
		sc, _ := e.NaiveInt(w.feat)
		want := stream.ScoresToProbs(sc, float64(e.Tree.WScale), nil)
		if !sameFloats(want, w.probs) {
			r.check(false, "sampled window %d: posteriors differ from NaiveInt", i)
			return
		}
	}
}
